//! The paper's running example (§2, Figures 2–5): four versions of a
//! company database merged into one timestamped archive.
//!
//! ```text
//! cargo run --example company_history
//! ```

use xarch::core::{Archive, KeyQuery};
use xarch::datagen::company::{company_spec, company_versions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut archive = Archive::new(company_spec());
    for (i, version) in company_versions().iter().enumerate() {
        let v = archive.add_version(version)?;
        println!(
            "archived version {v} ({} bytes as XML)",
            xarch::xml::writer::to_pretty_string(version, 0).len()
        );
        assert_eq!(v as usize, i + 1);
    }

    // Figure 4's timestamps, reproduced:
    let db = KeyQuery::new("db");
    let finance = KeyQuery::new("dept").with_text("name", "finance");
    let john = KeyQuery::new("emp")
        .with_text("fn", "John")
        .with_text("ln", "Doe");
    let jane = KeyQuery::new("emp")
        .with_text("fn", "Jane")
        .with_text("ln", "Smith");

    let h = |steps: &[KeyQuery]| archive.history(steps).map(|t| t.to_string());
    println!(
        "finance dept:        t={}",
        h(&[db.clone(), finance.clone()]).unwrap()
    );
    println!(
        "John Doe (finance):  t={}",
        h(&[db.clone(), finance.clone(), john.clone()]).unwrap()
    );
    println!(
        "Jane Smith:          t={}",
        h(&[db.clone(), finance.clone(), jane]).unwrap()
    );

    // John's salary history: 90K at version 3, 95K at version 4.
    let sal_path = [db, finance, john, KeyQuery::new("sal")];
    for sal in ["90K", "95K"] {
        let t = archive.value_history(&sal_path, sal).unwrap();
        println!("John's salary {sal}:   t={t}");
    }

    // An empty version 5 (the paper's §2 footnote): root keeps ticking.
    archive.add_empty_version();
    println!(
        "after empty v5: root t={}, db t={}",
        archive.time(archive.root()).unwrap(),
        archive.history(&[KeyQuery::new("db")]).unwrap()
    );

    // Figure 5: the archive rendered as XML.
    println!("--- archive XML ---\n{}", archive.to_xml_pretty());
    Ok(())
}
