//! The value interner is process-global and append-only, and every value
//! in it counts against `Budget::max_interned`. A probe for a fact that is
//! not stored must therefore leave it as it was. An integer in the
//! immediate range is its own id and takes no slot, so the probe's
//! never-seen integer lies outside that range. This binary holds one
//! test, so no other test interns values while it counts them.

use ldl1::value::intern;
use ldl1::{Error, MutationError, System, Value};

#[test]
fn refused_retraction_interns_nothing() {
    let mut sys = System::new();
    sys.load("p(1). q(X) <- p(X).").unwrap();
    let probe = "p(1099511627776, f(zzz_never_seen), {77777, 88888}).";
    let before = intern::len();
    let err = sys.retract(probe).unwrap_err();
    assert!(
        matches!(
            err,
            Error::Mutation(MutationError::RetractUnknownFact { .. })
        ),
        "{err:?}"
    );
    assert_eq!(
        intern::len(),
        before,
        "a refused retraction grew the interner"
    );
    for v in [
        Value::int(1 << 40),
        Value::compound("f", vec![Value::atom("zzz_never_seen")]),
        Value::set(vec![Value::int(77777), Value::int(88888)]),
    ] {
        assert_eq!(intern::find(&v), None, "{v} was interned");
    }
    // An in-range integer is found and resolves without an arena slot.
    let imm = Value::int(987654321);
    let id = intern::find(&imm).expect("an immediate is always found");
    assert_eq!(id, intern::id_of(&imm));
    assert_eq!(intern::resolve(id), imm);
    assert_eq!(intern::len(), before, "an immediate took an arena slot");
    // A stored fact is still found, and retracts.
    sys.retract("p(1).").unwrap();
    assert!(sys.query("q(X).").unwrap().is_empty());
}
