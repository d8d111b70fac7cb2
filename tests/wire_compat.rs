//! Wire compatibility through the facade crate: a submit line written
//! for an older server still parses, a field the protocol has retired is
//! ignored rather than refused, and a retired algorithm is refused
//! rather than run as something else.

use three_seq_align::core::{Algorithm, SimdKernel};
use three_seq_align::service::content_uid;
use three_seq_align::service::protocol::{parse_request, Request};
use three_seq_align::service::AlignRequest;

fn submit(line: &str) -> AlignRequest {
    match parse_request(line).expect("submit parses") {
        Request::Submit(req) => *req,
        other => panic!("expected a submit, got {other:?}"),
    }
}

/// Servers once took a per-job `kernel`, including two 16-bit kernels
/// that no longer exist. Every served job now runs `auto`, so the field
/// is ignored: the request and its cache identity equal those of the
/// same line without it.
#[test]
fn retired_kernel_field_is_ignored() {
    let bare =
        r#"{"op":"submit","id":"k","a":"GATTACA","b":"GATACA","c":"GTTACA","score_only":true}"#;
    let old = r#"{"op":"submit","id":"k","a":"GATTACA","b":"GATACA","c":"GTTACA","score_only":true,"kernel":"avx2-i16"}"#;
    let want = submit(bare);
    let got = submit(old);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    assert_eq!(content_uid(&got), content_uid(&want));
    for kernel in ["sse2-i16", "avx2", "scalar", "no-such-kernel"] {
        let line = bare.replace('}', &format!(r#","kernel":"{kernel}"}}"#));
        let got = submit(&line);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "kernel {kernel}");
        assert_eq!(content_uid(&got), content_uid(&want), "kernel {kernel}");
    }
    // The retired names select no kernel anywhere else either.
    assert_eq!(SimdKernel::by_name("avx2-i16"), None);
    assert_eq!(SimdKernel::by_name("sse2-i16"), None);
}

/// `banded` was retired because its adaptive band returned sub-optimal
/// scores (108 for 135 on a 50³ DNA triple of rotated blocks). A submit
/// that still names it, or another retired algorithm, is refused as an
/// invalid argument instead of being served by some other algorithm.
#[test]
fn retired_algorithm_is_an_invalid_argument() {
    for name in ["banded", "blocked", "dataflow"] {
        assert_eq!(Algorithm::by_name(name, 16), None, "{name}");
        let line = format!(
            r#"{{"op":"submit","id":"r","a":"GATTACA","b":"GATACA","c":"GTTACA","algorithm":"{name}"}}"#
        );
        let err = parse_request(&line).expect_err(name);
        assert_eq!(err.code, "invalid_argument", "{name}");
        assert_eq!(err.id.as_deref(), Some("r"));
        assert!(err.message.contains(name), "{}", err.message);
    }
}
