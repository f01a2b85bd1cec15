//! A minimal JSON object writer (the workspace carries no serde).

/// A flat JSON object under construction.
pub struct Obj(String);

impl Obj {
    pub fn new() -> Obj {
        Obj(String::from("{"))
    }

    fn key(&mut self, key: &str) {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        self.0.push_str(&quote(key));
        self.0.push_str(": ");
    }

    /// A number, written with every digit (`null` when not finite).
    pub fn num(mut self, key: &str, value: f64) -> Obj {
        self.key(key);
        if value.is_finite() {
            self.0.push_str(&format!("{value:?}"));
        } else {
            self.0.push_str("null");
        }
        self
    }

    pub fn int(mut self, key: &str, value: usize) -> Obj {
        self.key(key);
        self.0.push_str(&value.to_string());
        self
    }

    pub fn str(mut self, key: &str, value: &str) -> Obj {
        self.key(key);
        self.0.push_str(&quote(value));
        self
    }

    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
