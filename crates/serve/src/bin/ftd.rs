//! `ftd` — build, query, and benchmark persistent trajectory banks.
//!
//! See `ftd --help` (or [`ft_serve::cli`]) for the subcommands.

fn main() {
    #[cfg(unix)]
    restore_default_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ft_serve::cli::main_from_args(args));
}

/// The Rust runtime starts with `SIGPIPE` ignored, so printing into a
/// closed pipe (`ftd bank-info b.ftb | head -3`) panics on `EPIPE`.
/// Restoring the default disposition ends the process quietly instead,
/// as other command-line tools do. TCP writes go through `send(2)` with
/// `MSG_NOSIGNAL` on Linux, so a vanished network peer still surfaces
/// to the reactor as an `EPIPE` error, not a signal. Hand-rolled the
/// way `ft_serve::net` installs its drain handlers (no libc crate).
#[cfg(unix)]
fn restore_default_sigpipe() {
    use std::os::raw::c_int;
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    const SIGPIPE: c_int = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}
