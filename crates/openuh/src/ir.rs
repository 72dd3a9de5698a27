//! WHIRL-lite region IR.
//!
//! OpenUH lowers programs through five levels of the WHIRL IR; every
//! analysis and optimisation phase works on regions — procedures, loops,
//! branches and callsites. This model keeps the part the integration
//! needs: a region tree with the static attributes the cost models and
//! the instrumentation scorer consume.

use perfdmf::model::CALLPATH_SEPARATOR;
use serde::{Deserialize, Serialize};

/// Identifier of a region within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegionId(pub u32);

/// The kind of a program region, matching the constructs OpenUH's
/// instrumentation module covers ("procedures, loops, branches,
/// callsites").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionKind {
    /// A procedure / function body.
    Procedure,
    /// A loop nest level.
    Loop,
    /// A conditional branch arm.
    Branch,
    /// A call site.
    Callsite,
}

impl RegionKind {
    /// Lower-case tag used in profiles and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            RegionKind::Procedure => "procedure",
            RegionKind::Loop => "loop",
            RegionKind::Branch => "branch",
            RegionKind::Callsite => "callsite",
        }
    }
}

/// Static attributes of a region, per invocation unless noted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionAttrs {
    /// Basic blocks in the region body.
    pub basic_blocks: u32,
    /// Statements in the region body.
    pub statements: u32,
    /// Dynamic instructions executed per invocation.
    pub instructions: f64,
    /// Fraction of instructions that are floating-point.
    pub fp_fraction: f64,
    /// Average exploitable instruction-level parallelism (independent
    /// instructions per cycle the schedule exposes).
    pub ilp: f64,
    /// Estimated invocation count (from static heuristics or feedback).
    pub invocations: f64,
    /// Loop trip count (1 for non-loops).
    pub trip_count: f64,
    /// Bytes of data touched per invocation.
    pub working_set: f64,
    /// Memory references per invocation.
    pub memory_refs: f64,
    /// Passes over the working set per invocation.
    pub traversals: f64,
    /// Live values competing for registers (register pressure proxy).
    pub register_pressure: f64,
}

impl Default for RegionAttrs {
    fn default() -> Self {
        RegionAttrs {
            basic_blocks: 1,
            statements: 1,
            instructions: 100.0,
            fp_fraction: 0.0,
            ilp: 1.5,
            invocations: 1.0,
            trip_count: 1.0,
            working_set: 1024.0,
            memory_refs: 32.0,
            traversals: 1.0,
            register_pressure: 16.0,
        }
    }
}

/// A node in the region tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Region name (procedure name, `proc::loop1`, ...).
    pub name: String,
    /// Region kind.
    pub kind: RegionKind,
    /// Static attributes.
    pub attrs: RegionAttrs,
    /// Child region ids.
    pub children: Vec<RegionId>,
    /// Parent region id (`None` for roots).
    pub parent: Option<RegionId>,
}

/// A program: a forest of regions rooted at procedures.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Program {
    regions: Vec<Region>,
    roots: Vec<RegionId>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Adds a root procedure.
    pub fn add_procedure(&mut self, name: &str, attrs: RegionAttrs) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            name: name.to_string(),
            kind: RegionKind::Procedure,
            attrs,
            children: Vec::new(),
            parent: None,
        });
        self.roots.push(id);
        id
    }

    /// Adds a child region under `parent`.
    pub fn add_child(
        &mut self,
        parent: RegionId,
        name: &str,
        kind: RegionKind,
        attrs: RegionAttrs,
    ) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            name: name.to_string(),
            kind,
            attrs,
            children: Vec::new(),
            parent: Some(parent),
        });
        self.regions[parent.0 as usize].children.push(id);
        id
    }

    /// Region by id.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// Mutable region by id.
    pub fn region_mut(&mut self, id: RegionId) -> &mut Region {
        &mut self.regions[id.0 as usize]
    }

    /// Finds a region by name.
    pub fn find(&self, name: &str) -> Option<RegionId> {
        self.regions
            .iter()
            .position(|r| r.name == name)
            .map(|i| RegionId(i as u32))
    }

    /// Root procedures.
    pub fn roots(&self) -> &[RegionId] {
        &self.roots
    }

    /// All region ids in insertion order.
    pub fn all(&self) -> impl Iterator<Item = RegionId> + '_ {
        (0..self.regions.len() as u32).map(RegionId)
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the program has no regions.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Depth-first walk from a root, calling `f` with (id, depth).
    pub fn walk(&self, root: RegionId, f: &mut impl FnMut(RegionId, usize)) {
        fn rec(p: &Program, id: RegionId, depth: usize, f: &mut impl FnMut(RegionId, usize)) {
            f(id, depth);
            for &c in &p.region(id).children {
                rec(p, c, depth + 1, f);
            }
        }
        rec(self, root, 0, f);
    }

    /// Total dynamic instructions of a region including its children,
    /// weighting each child by its invocation count relative to the
    /// parent's.
    pub fn dynamic_instructions(&self, id: RegionId) -> f64 {
        let r = self.region(id);
        let own = r.attrs.instructions * r.attrs.invocations;
        own + r
            .children
            .iter()
            .map(|&c| self.dynamic_instructions(c))
            .sum::<f64>()
    }

    /// Callpath-style name (`proc => loop`, joined by
    /// [`CALLPATH_SEPARATOR`]), matching profile events.
    pub fn callpath(&self, id: RegionId) -> String {
        let mut parts = vec![self.region(id).name.clone()];
        let mut cur = self.region(id).parent;
        while let Some(p) = cur {
            parts.push(self.region(p).name.clone());
            cur = self.region(p).parent;
        }
        parts.reverse();
        parts.join(CALLPATH_SEPARATOR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Program, RegionId, RegionId, RegionId) {
        let mut p = Program::new();
        let main = p.add_procedure(
            "main",
            RegionAttrs {
                instructions: 1000.0,
                ..Default::default()
            },
        );
        let outer = p.add_child(
            main,
            "outer_loop",
            RegionKind::Loop,
            RegionAttrs {
                instructions: 500.0,
                invocations: 10.0,
                trip_count: 100.0,
                ..Default::default()
            },
        );
        let inner = p.add_child(
            outer,
            "inner_loop",
            RegionKind::Loop,
            RegionAttrs {
                instructions: 50.0,
                invocations: 1000.0,
                ..Default::default()
            },
        );
        (p, main, outer, inner)
    }

    #[test]
    fn tree_structure_and_lookup() {
        let (p, main, outer, inner) = sample();
        assert_eq!(p.len(), 3);
        assert_eq!(p.roots(), &[main]);
        assert_eq!(p.region(outer).parent, Some(main));
        assert_eq!(p.region(main).children, vec![outer]);
        assert_eq!(p.find("inner_loop"), Some(inner));
        assert_eq!(p.find("nope"), None);
        assert_eq!(p.region(inner).kind.tag(), "loop");
    }

    #[test]
    fn walk_visits_depth_first() {
        let (p, main, ..) = sample();
        let mut visited = Vec::new();
        p.walk(main, &mut |id, depth| {
            visited.push((p.region(id).name.clone(), depth));
        });
        assert_eq!(
            visited,
            vec![
                ("main".to_string(), 0),
                ("outer_loop".to_string(), 1),
                ("inner_loop".to_string(), 2),
            ]
        );
    }

    #[test]
    fn dynamic_instructions_roll_up() {
        let (p, main, outer, inner) = sample();
        assert_eq!(p.dynamic_instructions(inner), 50.0 * 1000.0);
        assert_eq!(p.dynamic_instructions(outer), 500.0 * 10.0 + 50_000.0);
        assert_eq!(p.dynamic_instructions(main), 1000.0 + 5000.0 + 50_000.0);
    }

    #[test]
    fn callpath_naming() {
        let (p, _, _, inner) = sample();
        assert_eq!(p.callpath(inner), "main => outer_loop => inner_loop");
    }

    #[test]
    fn serde_roundtrip() {
        let (p, ..) = sample();
        let json = serde_json::to_string(&p).unwrap();
        let back: Program = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
