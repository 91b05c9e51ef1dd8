//! Design-rule automation: textual queries, semi-automatic adaptation
//! triggers (§4.1), and schema round-tripping.
//!
//! A parts librarian maintains girder interfaces; downstream structures
//! keep a derived safety margin in sync via a trigger, and an engineer
//! queries the library in the paper's expression syntax.
//!
//! Run with: `cargo run -p ccdb-examples --bin design_rules`

use ccdb_core::prelude::*;
use ccdb_lang::{compile_expr, compile_str, render};

fn main() {
    // Schema in the paper's syntax.
    let mut catalog = Catalog::new();
    compile_str(
        r#"
        obj-type GirderInterface =
            attributes:
                Length, Height, Width: integer;
                Grade: (S235, S355);
            constraints:
                Length < 100*Height*Width;
        end GirderInterface;

        inher-rel-type AllOf_GirderIf =
            transmitter: object-of-type GirderInterface;
            inheritor: object;
            inheriting: Length, Height, Width, Grade;
        end AllOf_GirderIf;

        obj-type GirderUse =
            inheritor-in: AllOf_GirderIf;
            attributes:
                SafetyMargin: integer;
        end GirderUse;
        "#,
        &mut catalog,
    )
    .unwrap();

    // The schema round-trips through the renderer.
    let rendered = render(&catalog).unwrap();
    println!("--- schema (rendered back from the catalog) ---\n{rendered}");

    let mut store = ObjectStore::new(catalog).unwrap();

    // A small girder library.
    let mut girders = Vec::new();
    for (len, h, w, grade) in [
        (300, 20, 10, "S235"),
        (500, 30, 12, "S355"),
        (800, 40, 20, "S355"),
    ] {
        girders.push(
            store
                .create_object(
                    "GirderInterface",
                    vec![
                        ("Length", Value::Int(len)),
                        ("Height", Value::Int(h)),
                        ("Width", Value::Int(w)),
                        ("Grade", Value::Enum(grade.into())),
                    ],
                )
                .unwrap(),
        );
    }
    // A use site bound to the middle girder, with a derived margin.
    let use_site = store
        .create_object("GirderUse", vec![("SafetyMargin", Value::Int(50))])
        .unwrap();
    store
        .bind("AllOf_GirderIf", girders[1], use_site, vec![])
        .unwrap();

    // -------------------------------------------------------------
    // Textual queries in paper syntax (top-down selection, §6).
    // -------------------------------------------------------------
    let q = compile_expr("Grade = S355 and Length >= 500", store.catalog()).unwrap();
    let hits = store.select("GirderInterface", &q).unwrap();
    println!(
        "query `Grade = S355 and Length >= 500` → {} girder(s): {:?}",
        hits.len(),
        hits
    );
    assert_eq!(hits.len(), 2);

    // Queries see *inherited* data on use sites too.
    let q2 = compile_expr("Height = 30", store.catalog()).unwrap();
    let uses = store.select("GirderUse", &q2).unwrap();
    println!("use sites on 30-high girders: {uses:?}");
    assert_eq!(uses, vec![use_site]);

    // -------------------------------------------------------------
    // Trigger: keep SafetyMargin = Length / 10 whenever the bound
    // girder changes (the paper's semi-automatic correction).
    // -------------------------------------------------------------
    // The flags are the adaptation record; acknowledging the ones raised
    // while the design was set up makes the trigger see only what changes
    // from here on.
    let raised: Vec<_> = store.adaptation_flags().map(|(rel, _)| rel).collect();
    for rel in raised {
        store.acknowledge_adaptation(rel).unwrap();
    }
    let mut triggers = TriggerRegistry::new();
    triggers.register("AllOf_GirderIf", |st, ev| {
        if &*ev.item != "Length" {
            return Ok(TriggerOutcome::Handled);
        }
        if let Value::Int(len) = st.attr(ev.inheritor, "Length")? {
            st.set_attr(ev.inheritor, "SafetyMargin", Value::Int(len / 10))?;
        }
        Ok(TriggerOutcome::Handled)
    });

    store
        .set_attr(girders[1], "Length", Value::Int(620))
        .unwrap();
    let report = triggers.process(&mut store).unwrap();
    println!(
        "girder updated: {} event(s), {} auto-adapted; SafetyMargin now = {}",
        report.events,
        report.handled,
        store.attr(use_site, "SafetyMargin").unwrap()
    );
    assert_eq!(
        store.attr(use_site, "SafetyMargin").unwrap(),
        Value::Int(62)
    );
    let rel = store.binding_of(use_site, "AllOf_GirderIf").unwrap();
    assert!(
        !store.needs_adaptation(rel).unwrap(),
        "trigger cleared the flag"
    );

    // The schema constraint still guards the library.
    let err = store.set_attr(girders[0], "Length", Value::Int(1_000_000));
    assert!(err.is_ok(), "writes are not blocked eagerly…");
    let violations = store.check_constraints(girders[0]).unwrap();
    println!(
        "…but check_constraints reports {} violation(s) for the oversized girder",
        violations.len()
    );
    assert_eq!(violations.len(), 1);
    println!("design_rules OK");
}
