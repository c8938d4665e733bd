//! Runs every workload at tiny scale, untraced and traced, and checks that
//! the result line parses and names every metric `BENCHMARK.json` lists
//! for that mode, with its unit.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A JSON value, enough to read `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object when looking up {key}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after the JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected '{}' at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected '{}' in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected '{}' in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn declared(bench: &Json, key: &str) -> Vec<(String, String)> {
    let Json::Arr(list) = bench.get(key) else {
        panic!("{key} is not a list")
    };
    list.iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = Parser::parse(&text);
    let Json::Arr(workloads) = bench.get("workloads") else {
        panic!("workloads is not a list")
    };
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&scratch).expect("scratch directory");

    // `serve-durable` is left out of BENCHMARK.json (its fsync-bound
    // throughput is not steady on a shared disk) but stays runnable.
    let mut names: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
    if !names.contains(&"serve-durable") {
        names.push("serve-durable");
    }
    for name in names {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "7",
                    "--seconds",
                    "2",
                    "--trace",
                    trace,
                    "--tiny",
                ])
                .current_dir(&scratch)
                .output()
                .expect("run the benchmark");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed: {stderr}"
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = Parser::parse(last);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{name} --trace {trace}: {stderr}"
            );
            assert_eq!(
                result.get("failed"),
                &Json::Num(0.0),
                "{name} --trace {trace}"
            );
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics is not an object")
            };
            let expected = declared(&bench, key);
            assert_eq!(
                metrics.len(),
                expected.len(),
                "{name} --trace {trace}: metric count"
            );
            for (metric, unit) in expected {
                let m = metrics
                    .get(&metric)
                    .unwrap_or_else(|| panic!("{name} --trace {trace}: no metric {metric}"));
                assert_eq!(m.get("unit").str(), unit, "{name}: unit of {metric}");
                assert!(
                    matches!(m.get("value"), Json::Num(v) if v.is_finite()),
                    "{name}: {metric}"
                );
            }
        }
    }
}
