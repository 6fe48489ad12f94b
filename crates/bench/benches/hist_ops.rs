//! Performance of the histogram-arithmetic kernels versus granularity —
//! the computational trade-off the paper highlights ("higher granularity
//! produces higher precision results but with more calculation
//! overheads").
//!
//! Sums and differences evaluate the sum's CDF at the output bin edges,
//! `O(out_bins × operand bins)`; products still deposit every bin pair.
//! The `*_unequal` cases pair operands whose bin widths differ by 5×, the
//! common case inside the engines (an accumulated sum plus one narrower
//! term).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sna_hist::{DepositPolicy, Histogram, OpOptions};

fn bench_binary_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hist_binary");
    let exact = OpOptions::default().with_deposit(DepositPolicy::Exact);
    let uniform = OpOptions::default().with_deposit(DepositPolicy::Uniform);
    for &bins in &[32usize, 64, 128, 256] {
        let a = Histogram::uniform(0.0, 1.0, bins).unwrap();
        let b = Histogram::triangular(-1.0, 1.0, bins).unwrap();
        let narrow = Histogram::gaussian(0.3, 0.025, bins).unwrap();
        let cases: [(&str, &Histogram, &OpOptions, bool); 6] = [
            ("add_exact", &b, &exact, false),
            ("add_uniform", &b, &uniform, false),
            ("sub_exact", &b, &exact, true),
            ("sub_uniform", &b, &uniform, true),
            ("add_exact_unequal", &narrow, &exact, false),
            ("add_uniform_unequal", &narrow, &uniform, false),
        ];
        for (name, rhs, opts, negate) in cases {
            group.bench_with_input(BenchmarkId::new(name, bins), &bins, |bench, _| {
                bench.iter(|| {
                    std::hint::black_box(if negate {
                        a.sub_with(rhs, opts).unwrap()
                    } else {
                        a.add_with(rhs, opts).unwrap()
                    })
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("mul", bins), &bins, |bench, _| {
            bench.iter(|| std::hint::black_box(a.mul(&b).unwrap()))
        });
    }
    group.finish();
}

fn bench_unary_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hist_unary");
    for &bins in &[64usize, 256] {
        let x = Histogram::unit_symbol(bins).unwrap();
        group.bench_with_input(BenchmarkId::new("sqr_exact", bins), &bins, |bench, _| {
            bench.iter(|| std::hint::black_box(x.sqr().unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("quantile", bins), &bins, |bench, _| {
            bench.iter(|| std::hint::black_box(x.quantile(0.99)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_binary_ops, bench_unary_ops);
criterion_main!(benches);
