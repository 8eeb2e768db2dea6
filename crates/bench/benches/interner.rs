//! Interner and tagger hot loops: the per-token costs that the allocation
//! overhaul moved off the parse path (lowercase `String`s → `Sym` ids), and
//! tagging with and without the tagger's per-word memo.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const SENTENCE: &str =
    "Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.";

fn bench_interner(c: &mut Criterion) {
    let mut g = c.benchmark_group("interner");
    // Pre-seed so every iteration measures the read-path (shared-lock hash
    // probe), which is what the pipeline sees after the first sentence.
    for w in ["pressure", "pulse", "temperature", "weight"] {
        cmr_text::intern(w);
    }
    g.bench_function("intern_hit", |b| {
        b.iter(|| black_box(cmr_text::intern(black_box("pressure"))))
    });
    g.bench_function("intern_lower_already_lowercase", |b| {
        b.iter(|| black_box(cmr_text::intern_lower(black_box("pulse"))))
    });
    g.bench_function("intern_lower_mixed_case", |b| {
        b.iter(|| black_box(cmr_text::intern_lower(black_box("Temperature"))))
    });
    g.bench_function("sym_resolve", |b| {
        let sym = cmr_text::intern("weight");
        b.iter(|| black_box(black_box(sym).as_str()))
    });
    g.finish();
}

/// `tagger_warm` reuses one tagger, so after the first iteration every word
/// is a memo hit (a worker's steady state); `tagger_cold` tags with a fresh
/// tagger per iteration, so every word is analyzed from scratch (the first
/// sentence a worker sees).
fn bench_tagger(c: &mut Criterion) {
    let tokens = cmr_text::tokenize(SENTENCE);
    let mut g = c.benchmark_group("tagger_warm");
    let tagger = cmr_postag::PosTagger::new();
    g.bench_function("tag_18_words_borrowed", |b| {
        b.iter(|| black_box(tagger.tag(black_box(&tokens))))
    });
    g.bench_function("tag_18_words_owned", |b| {
        b.iter(|| black_box(tagger.tag_owned(black_box(tokens.clone()))))
    });
    g.bench_function("tokenize_and_tag", |b| {
        b.iter(|| black_box(tagger.tag_owned(cmr_text::tokenize(black_box(SENTENCE)))))
    });
    g.finish();

    let mut g = c.benchmark_group("tagger_cold");
    g.bench_function("tag_18_words_borrowed", |b| {
        b.iter(|| black_box(cmr_postag::PosTagger::new().tag(black_box(&tokens))))
    });
    g.bench_function("tokenize_and_tag", |b| {
        b.iter(|| {
            black_box(
                cmr_postag::PosTagger::new().tag_owned(cmr_text::tokenize(black_box(SENTENCE))),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_interner, bench_tagger);
criterion_main!(benches);
