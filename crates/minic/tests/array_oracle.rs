//! Differential testing of array accesses: generated loops load and store
//! one global and one local array at generated index expressions, and the
//! interpreter must agree with a direct Rust model of the same loop — the
//! same return value and global contents, or exactly the same
//! out-of-bounds error (array name, index and length).

use amdrel_minic::compile_to_ir;
use amdrel_profiler::{Interpreter, ProfileError};
use proptest::prelude::*;

/// An index expression `(i * coef + offset) % modulus` over the loop
/// counter `i`; a modulus of 0 leaves the remainder out.
#[derive(Debug, Clone, Copy)]
struct Index {
    coef: i64,
    offset: i64,
    modulus: i64,
}

impl Index {
    fn render(self) -> String {
        let linear = format!("i * {} + {}", lit(self.coef), lit(self.offset));
        if self.modulus == 0 {
            format!("({linear})")
        } else {
            format!("(({linear}) % {})", self.modulus)
        }
    }

    /// Evaluate with mini-C semantics: wrapping 64-bit, truncating `%`.
    fn eval(self, i: i64) -> i64 {
        let linear = i.wrapping_mul(self.coef).wrapping_add(self.offset);
        if self.modulus == 0 {
            linear
        } else {
            linear.wrapping_rem(self.modulus)
        }
    }
}

fn index() -> impl Strategy<Value = Index> {
    (-1i64..3, -1i64..6, 0i64..6).prop_map(|(coef, offset, modulus)| Index {
        coef,
        offset,
        modulus,
    })
}

/// Mini-C has no negative literals in expressions: spell them `(0 - n)`.
fn lit(v: i64) -> String {
    if v < 0 {
        format!("(0 - {})", -v)
    } else {
        v.to_string()
    }
}

/// One generated program. The loop body is
///
/// ```c
/// g[at[0]] = i * scale + s;
/// l[at[1]] = g[at[2]] + i;
/// s = s + l[at[3]];
/// ```
#[derive(Debug)]
struct Program {
    global_len: usize,
    local_len: usize,
    trips: i64,
    scale: i64,
    init: Vec<i64>,
    at: [Index; 4],
}

impl Program {
    fn source(&self) -> String {
        let init: Vec<String> = self.init.iter().map(i64::to_string).collect();
        format!(
            "int g[{}] = {{{}}};\n\
             int main() {{\n\
             \x20   int l[{}];\n\
             \x20   long s = 0;\n\
             \x20   for (int i = 0; i < {}; i++) {{\n\
             \x20       g[{}] = i * {} + s;\n\
             \x20       l[{}] = g[{}] + i;\n\
             \x20       s = s + l[{}];\n\
             \x20   }}\n\
             \x20   return s;\n\
             }}\n",
            self.global_len,
            init.join(", "),
            self.local_len,
            self.trips,
            self.at[0].render(),
            lit(self.scale),
            self.at[1].render(),
            self.at[2].render(),
            self.at[3].render(),
        )
    }

    /// The same loop run directly: `(return value, final g)` or the first
    /// out-of-bounds access, checked in the order mini-C performs them
    /// (a store's value is computed before its index is checked).
    fn model(&self) -> Result<(i64, Vec<i64>), ProfileError> {
        let mut g = self.init.clone();
        g.resize(self.global_len, 0);
        let mut l = vec![0; self.local_len];
        let mut s: i64 = 0;
        for i in 0..self.trips {
            *cell(&mut g, "g", self.at[0].eval(i))? = i.wrapping_mul(self.scale).wrapping_add(s);
            let v = cell(&mut g, "g", self.at[2].eval(i))?.wrapping_add(i);
            *cell(&mut l, "l", self.at[1].eval(i))? = v;
            s = s.wrapping_add(*cell(&mut l, "l", self.at[3].eval(i))?);
        }
        Ok((s, g))
    }
}

fn cell<'a>(array: &'a mut [i64], name: &str, index: i64) -> Result<&'a mut i64, ProfileError> {
    let len = array.len();
    usize::try_from(index)
        .ok()
        .and_then(|i| array.get_mut(i))
        .ok_or_else(|| ProfileError::IndexOutOfBounds {
            array: name.to_owned(),
            index,
            len,
        })
}

fn program() -> impl Strategy<Value = Program> {
    (
        1usize..9,
        1usize..9,
        0i64..10,
        -3i64..4,
        prop::array::uniform4(-50i64..50),
        0usize..5,
        prop::array::uniform4(index()),
    )
        .prop_map(
            |(global_len, local_len, trips, scale, init, init_len, at)| Program {
                global_len,
                local_len,
                trips,
                scale,
                init: init[..init_len.min(global_len)].to_vec(),
                at,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn array_accesses_match_direct_model(p in program()) {
        let src = p.source();
        let ir = compile_to_ir(&src, "main").expect("generated source compiles");
        let actual = Interpreter::new(&ir).run(&[]).map(|exec| {
            let g = exec.global("g").expect("g is a global").to_vec();
            (exec.return_value.expect("main returns s"), g)
        });
        prop_assert_eq!(actual, p.model(), "source:\n{}", src);
    }
}
