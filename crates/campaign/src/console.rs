//! Standard output that outlives its reader.
//!
//! `println!` panics once stdout is a pipe whose reader has exited
//! (`vsched sweep spec.json | head -1`), and in a campaign every
//! `vsched-exec` worker that prints a progress line panics with it. Long
//! runs print through [`STDOUT`] instead: after a write fails with a
//! broken pipe it drops every later line, so the run still finishes its
//! store, figures and output files and exits normally.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// The process's standard output, shared by every thread that prints.
pub static STDOUT: Console = Console {
    closed: AtomicBool::new(false),
};

/// Standard output that goes quiet when its reader hangs up.
#[derive(Debug)]
pub struct Console {
    /// Whether a write found the pipe closed.
    closed: AtomicBool,
}

impl Console {
    /// Prints `args`, as `print!` does, unless the reader has gone.
    ///
    /// # Panics
    ///
    /// On a write error other than a broken pipe, as `print!` does.
    pub fn print(&self, args: fmt::Arguments<'_>) {
        self.write(|out| out.write_fmt(args));
    }

    /// Prints `args` and a newline, as `println!` does, unless the reader
    /// has gone.
    ///
    /// # Panics
    ///
    /// As [`Console::print`].
    pub fn println(&self, args: fmt::Arguments<'_>) {
        self.write(|out| {
            out.write_fmt(args)?;
            out.write_all(b"\n")
        });
    }

    fn write(&self, f: impl FnOnce(&mut io::StdoutLock<'static>) -> io::Result<()>) {
        if self.closed.load(Ordering::Relaxed) {
            return;
        }
        match f(&mut io::stdout().lock()) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed.store(true, Ordering::Relaxed);
            }
            Err(e) => panic!("failed printing to stdout: {e}"),
        }
    }
}
