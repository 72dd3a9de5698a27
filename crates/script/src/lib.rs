//! An embeddable analysis scripting language.
//!
//! PerfExplorer 2.0 added "a scripting interface for process control …
//! with the interface, it is straightforward to derive new metrics,
//! perform analysis, and automate the processing of performance data"
//! (the paper's Figure 1 shows a Jython workflow). This crate provides
//! the equivalent capability for the Rust stack: a small, dynamically
//! typed language compiled to register bytecode and executed by a
//! register VM, with a host-function registry through which the
//! analysis layer exposes its operations. The original tree-walking
//! interpreter survives as [`mod@reference`], the executable
//! specification the VM is differentially tested against. `par_foreach_trial` runs a script block once per trial of
//! a list, each body isolated (own step budget, captured output,
//! per-body error outcomes) so a host can fan the bodies out across a
//! thread pool via [`Interpreter::set_parallel_executor`].
//!
//! [`Interpreter::run`] compiles and runs a source string and keeps
//! nothing. [`Interpreter::compile`] returns a [`Compiled`] program —
//! bytecode plus a snapshot of the name tables it was compiled against
//! — that [`Interpreter::run_compiled`] runs any number of times, on
//! this interpreter or on any other registered the same way. The crate
//! keeps no compile cache; a host that reuses programs caches the
//! `Compiled` values itself.
//!
//! The language has `let` bindings, assignment, arithmetic and logic,
//! strings/lists/maps, `if`/`else`, `while`, `for … in`, user functions
//! and host functions. Host objects (trials, analysis results) cross the
//! boundary as opaque [`Value::Handle`] values.
//!
//! ```
//! use script::{Interpreter, Value};
//!
//! let mut interp = Interpreter::new();
//! interp.register("double", |args| {
//!     let n = args[0].as_num().unwrap_or(0.0);
//!     Ok(Value::Num(n * 2.0))
//! });
//! let out = interp
//!     .run(
//!         r#"
//!         let total = 0;
//!         for x in [1, 2, 3] {
//!             total = total + double(x);
//!         }
//!         print("total = " + str(total));
//!         total
//!         "#,
//!     )
//!     .unwrap();
//! assert_eq!(out, Value::Num(12.0));
//! assert_eq!(interp.take_output(), vec!["total = 12"]);
//! ```

#![warn(missing_docs)]

pub mod ast;
mod builtins;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
mod rcompile;
pub mod reference;
mod rvm;
pub mod value;

pub use builtins::MAX_RANGE_LEN;
pub use error::ScriptError;
pub use interp::{Compiled, HostFn, Interpreter};
pub use rvm::{BodyOutcome, HostDispatch, ParRunner, ParallelExecutor};
pub use value::Value;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, ScriptError>;
