//! A flag whose value is missing or unparsable stops the binary at parse
//! time with exit code 2 instead of silently falling back to a default.

use std::process::Command;

#[test]
fn bad_flag_values_exit_2() {
    for args in [
        &["fig5", "--samples", "abc"][..],
        &["fig5", "--threads", "abc"],
        &["fig5", "--artifacts"],
        &["fig5", "--reps", "abc"],
        &["fig5", "--pool-workers", "abc"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tbpoint"))
            .args(args)
            .output()
            .expect("the tbpoint binary starts");
        assert_eq!(
            out.status.code(),
            Some(2),
            "tbpoint {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
