//! Independent oracle for §3.1's shortest-path association: on every
//! linkage the parser produces for generated notes, clean and corrupted,
//! `Linkage::distances_from` (single-source Dijkstra) must equal
//! Floyd–Warshall's all-pairs distances over the same weighted links.

use cmr::prelude::*;

/// All-pairs shortest distances by Floyd–Warshall; `f64::INFINITY` marks
/// unreachable pairs.
fn floyd_warshall(linkage: &Linkage, weights: &LinkWeights) -> Vec<Vec<f64>> {
    let n = linkage.len();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for link in linkage.links.iter() {
        let w = weights.weight(&link.label);
        let (a, b) = (link.left, link.right);
        d[a][b] = d[a][b].min(w);
        d[b][a] = d[b][a].min(w);
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let through = d[i][k] + d[k][j];
                if through < d[i][j] {
                    d[i][j] = through;
                }
            }
        }
    }
    d
}

#[test]
fn dijkstra_distances_equal_floyd_warshall() {
    let parser = LinkParser::new();
    let corpus = CorpusBuilder::new().records(40).seed(4).build();
    let mut linkages = 0;
    for noise in [0.0, 0.2] {
        let injector = NoiseInjector::from_level(noise, 4);
        for rec in &corpus.records {
            let record = Record::parse(&injector.corrupt(&rec.text));
            for section in &record.sections {
                for sentence in section.sentences() {
                    let Some(linkage) = parser.parse_sentence(sentence.text(&section.body)) else {
                        continue;
                    };
                    linkages += 1;
                    for weights in [LinkWeights::default(), LinkWeights::uniform()] {
                        let oracle = floyd_warshall(&linkage, &weights);
                        for (from, want) in oracle.iter().enumerate() {
                            let got = linkage.distances_from(from, &weights);
                            for (to, (g, w)) in got.iter().zip(want).enumerate() {
                                assert!(
                                    g == w || (g - w).abs() <= 1e-9,
                                    "noise {noise}, {:?}: distance {from}->{to} is {g}, \
                                     Floyd-Warshall says {w}",
                                    linkage.words
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        linkages >= 200,
        "too few parsed sentences to mean anything: {linkages}"
    );
}
