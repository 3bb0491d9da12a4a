//! `Option` fields under the derive stub: absent / `null` / present on
//! read, `null` or omitted on write.

use serde::{Deserialize, Serialize};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Knobs {
    name: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    depth: Option<u64>,
    plain: Option<f64>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Command {
    Resize {
        #[serde(skip_serializing_if = "Option::is_none")]
        to: Option<u64>,
        note: Option<String>,
    },
}

fn knobs(depth: Option<u64>, plain: Option<f64>) -> Knobs {
    let name = "k".to_string();
    Knobs { name, depth, plain }
}

#[test]
fn an_option_field_may_be_absent_null_or_present() {
    let read = |text: &str| serde_json::from_str::<Knobs>(text);
    assert_eq!(read(r#"{"name":"k"}"#).unwrap(), knobs(None, None));
    let nulls = r#"{"name":"k","depth":null,"plain":null}"#;
    assert_eq!(read(nulls).unwrap(), knobs(None, None));
    let present = r#"{"name":"k","depth":3,"plain":0.5}"#;
    assert_eq!(read(present).unwrap(), knobs(Some(3), Some(0.5)));
    // Present but wrong is still an error, and only `Option`s may be absent.
    assert!(read(r#"{"name":"k","depth":"three"}"#).is_err());
    assert!(read(r#"{"name":"k","depth":-3}"#).is_err());
    let missing = read(r#"{"depth":3}"#).unwrap_err();
    assert!(
        missing.message.contains("missing field `name`"),
        "{missing}"
    );
    // Struct variants follow the same rule.
    let bare = Command::Resize {
        to: None,
        note: None,
    };
    assert_eq!(
        serde_json::from_str::<Command>(r#"{"Resize":{}}"#).unwrap(),
        bare
    );
}

#[test]
fn none_is_written_as_null_unless_the_field_opts_out() {
    let write = |depth, plain| serde_json::to_string(&knobs(depth, plain)).unwrap();
    assert_eq!(write(None, None), r#"{"name":"k","plain":null}"#);
    let full = r#"{"name":"k","depth":3,"plain":0.5}"#;
    assert_eq!(write(Some(3), Some(0.5)), full);
    let resize = |to, note| serde_json::to_string(&Command::Resize { to, note }).unwrap();
    assert_eq!(resize(None, None), r#"{"Resize":{"note":null}}"#);
    let full = r#"{"Resize":{"to":8,"note":"grow"}}"#;
    assert_eq!(resize(Some(8), Some("grow".to_string())), full);
}
