//! Random visualization-query generation (paper §7.1).
//!
//! Each query is derived from a randomly sampled seed record: the keyword condition
//! uses a non-stop word from the record's text, the temporal condition starts at the
//! record's timestamp with a length drawn from a random zoom level, the spatial
//! condition is a bounding box of random zoom level centred at the record's location,
//! and numeric conditions are ranges of random zoom level centred at the record's
//! value. Different zoom levels yield very different selectivities, which is what
//! spreads queries across the difficulty buckets of Table 2/3.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use vizdb::query::{BinGrid, JoinSpec, OutputKind, Predicate, Query};
use vizdb::stats::ColumnStats;
use vizdb::types::GeoRect;

use crate::{Dataset, FilterKind, SeedRecord};

/// How query workloads are generated from a dataset.
#[derive(Debug, Clone, Copy)]
pub struct QueryGenConfig {
    /// Number of filtering conditions (the first `k` filter attributes of the dataset);
    /// the paper uses 3 everywhere except the rewrite-option experiments (4 and 5).
    pub num_filter_attrs: usize,
    /// Whether to join with the dataset's dimension table (Twitter ⋈ users, §7.5).
    pub join: bool,
    /// `true` produces heatmap-style binned-count outputs, `false` scatterplot points.
    pub binned_output: bool,
    /// Maximum spatial / numeric zoom level (the temporal maximum follows the paper's
    /// `⌈log₂(days)⌉` formula).
    pub max_zoom: u32,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        Self {
            num_filter_attrs: 3,
            join: false,
            binned_output: false,
            max_zoom: 9,
        }
    }
}

impl QueryGenConfig {
    /// A workload with `k` filtering conditions.
    pub fn with_filters(k: usize) -> Self {
        Self {
            num_filter_attrs: k,
            ..Self::default()
        }
    }

    /// The join-query workload of §7.5.
    pub fn join() -> Self {
        Self {
            join: true,
            ..Self::default()
        }
    }
}

/// Generates `n` random queries over `dataset`.
pub fn generate_queries(
    dataset: &Dataset,
    n: usize,
    config: &QueryGenConfig,
    seed: u64,
) -> Vec<Query> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9E3779B9);
    let mut queries = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while queries.len() < n && attempts < n * 20 {
        attempts += 1;
        let seed_record = &dataset.seeds[rng.gen_range(0..dataset.seeds.len())];
        if let Some(q) = generate_one(dataset, seed_record, config, &mut rng) {
            queries.push(q);
        }
    }
    queries
}

/// Convenience alias for [`generate_queries`] with the default configuration.
pub fn generate_workload(dataset: &Dataset, n: usize, seed: u64) -> Vec<Query> {
    generate_queries(dataset, n, &QueryGenConfig::default(), seed)
}

fn generate_one<R: Rng>(
    dataset: &Dataset,
    seed: &SeedRecord,
    config: &QueryGenConfig,
    rng: &mut R,
) -> Option<Query> {
    let spec = &dataset.spec;
    let k = config.num_filter_attrs.min(spec.filter_attrs.len()).max(1);
    let mut query = Query::select(&dataset.table);

    for filter in spec.filter_attrs.iter().take(k) {
        let predicate = match filter.kind {
            FilterKind::Keyword => {
                let keyword = seed.keyword.clone()?;
                Predicate::keyword(filter.attr, keyword)
            }
            FilterKind::Time => time_predicate(filter.attr, seed.timestamp, dataset, rng),
            FilterKind::TimeFromNumeric(i) => {
                let boundary = *seed.numerics.get(i)? as i64;
                time_predicate(filter.attr, boundary, dataset, rng)
            }
            FilterKind::Spatial => spatial_predicate(filter.attr, seed, dataset, config, rng),
            FilterKind::Numeric(i) => {
                let centre = *seed.numerics.get(i)?;
                numeric_predicate(filter.attr, centre, dataset, config, rng)?
            }
        };
        query = query.filter(predicate);
    }

    if config.join {
        let dim_table = spec.dim_table.clone()?;
        let dim_attr = spec.dim_numeric_attr?;
        let key_attr = spec.join_key_attr?;
        let (lo, hi) = dim_numeric_range(dataset, &dim_table, dim_attr, config, rng)?;
        query = query.join_with(JoinSpec {
            right_table: dim_table,
            left_attr: key_attr,
            right_attr: 0,
            right_predicates: vec![Predicate::numeric_range(dim_attr, lo, hi)],
        });
    }

    let output = if config.binned_output {
        OutputKind::BinnedCounts {
            point_attr: spec.geo_attr,
            grid: BinGrid::new(dataset.geo_extent, 64, 32),
        }
    } else {
        OutputKind::Points {
            id_attr: spec.id_attr,
            point_attr: spec.geo_attr,
        }
    };
    Some(query.output(output))
}

/// Samples a zoom level in `[0, max_zoom]` with a bias towards low zoom levels (wide,
/// unselective ranges). The paper's Table 2 shows that a large share of the generated
/// queries has few or no viable plans, i.e. the workload is dominated by panned-out
/// views of the data; a quadratic bias over the zoom level reproduces that mix.
fn sample_zoom<R: Rng>(rng: &mut R, max_zoom: u32) -> u32 {
    let u: f64 = rng.gen();
    ((u * u * (max_zoom as f64 + 1.0)) as u32).min(max_zoom)
}

/// Temporal range: left boundary at the seed value, length `max(L / 2^z, 1 day)` for a
/// random zoom level `z ∈ [0, ⌈log₂(L_days)⌉]` — exactly the paper's construction.
fn time_predicate<R: Rng>(attr: usize, start: i64, dataset: &Dataset, rng: &mut R) -> Predicate {
    let (t_min, t_max) = dataset.time_extent;
    let total_secs = (t_max - t_min).max(86_400);
    let total_days = (total_secs / 86_400).max(1);
    let max_zoom = (total_days as f64).log2().ceil() as u32;
    let z = sample_zoom(rng, max_zoom);
    let len_secs = (total_secs / (1i64 << z.min(62))).max(86_400);
    Predicate::time_range(attr, start, (start + len_secs).min(t_max))
}

/// Spatial bounding box centred at the seed location with a random zoom level over the
/// dataset extent.
fn spatial_predicate<R: Rng>(
    attr: usize,
    seed: &SeedRecord,
    dataset: &Dataset,
    config: &QueryGenConfig,
    rng: &mut R,
) -> Predicate {
    let extent = dataset.geo_extent;
    let z = sample_zoom(rng, config.max_zoom);
    let w = extent.width() / f64::powi(2.0, z as i32);
    let h = extent.height() / f64::powi(2.0, z as i32);
    let rect = GeoRect::new(
        (seed.point.lon - w / 2.0).max(extent.min_lon),
        (seed.point.lat - h / 2.0).max(extent.min_lat),
        (seed.point.lon + w / 2.0).min(extent.max_lon),
        (seed.point.lat + h / 2.0).min(extent.max_lat),
    );
    Predicate::spatial_range(attr, rect)
}

/// Numeric range centred at the seed value with a random zoom level over the column's
/// observed min/max.
fn numeric_predicate<R: Rng>(
    attr: usize,
    centre: f64,
    dataset: &Dataset,
    config: &QueryGenConfig,
    rng: &mut R,
) -> Option<Predicate> {
    let stats = dataset.db.stats(&dataset.table).ok()?;
    let (col_min, col_max) = match stats.column(attr) {
        Some(ColumnStats::Numeric(hist)) => (hist.min(), hist.max()),
        _ => (0.0, 1.0),
    };
    let span = (col_max - col_min).max(f64::EPSILON);
    let z = sample_zoom(rng, config.max_zoom);
    let width = span / f64::powi(2.0, z as i32);
    Some(Predicate::numeric_range(
        attr,
        (centre - width / 2.0).max(col_min),
        (centre + width / 2.0).min(col_max),
    ))
}

/// Random numeric range on the dimension table's filtering attribute.
fn dim_numeric_range<R: Rng>(
    dataset: &Dataset,
    dim_table: &str,
    attr: usize,
    config: &QueryGenConfig,
    rng: &mut R,
) -> Option<(f64, f64)> {
    let stats = dataset.db.stats(dim_table).ok()?;
    let (col_min, col_max) = match stats.column(attr) {
        Some(ColumnStats::Numeric(hist)) => (hist.min(), hist.max()),
        _ => (0.0, 1.0),
    };
    let span = (col_max - col_min).max(f64::EPSILON);
    let z = rng.gen_range(0..=config.max_zoom.min(4));
    let width = span / f64::powi(2.0, z as i32);
    let lo = col_min + rng.gen::<f64>() * (span - width).max(0.0);
    Some((lo, lo + width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::DatasetScale;
    use crate::twitter::build_twitter;

    fn dataset() -> Dataset {
        build_twitter(DatasetScale::tiny(), 11)
    }

    #[test]
    fn generates_requested_number_of_queries() {
        let ds = dataset();
        let queries = generate_workload(&ds, 40, 1);
        assert_eq!(queries.len(), 40);
        assert!(queries.iter().all(|q| q.predicate_count() == 3));
        assert!(queries.iter().all(|q| !q.is_join()));
    }

    #[test]
    fn generation_is_deterministic() {
        let ds = dataset();
        let a = generate_workload(&ds, 10, 5);
        let b = generate_workload(&ds, 10, 5);
        assert_eq!(a, b);
        let c = generate_workload(&ds, 10, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn four_and_five_attribute_workloads() {
        let ds = dataset();
        let q4 = generate_queries(&ds, 10, &QueryGenConfig::with_filters(4), 2);
        let q5 = generate_queries(&ds, 10, &QueryGenConfig::with_filters(5), 2);
        assert!(q4.iter().all(|q| q.predicate_count() == 4));
        assert!(q5.iter().all(|q| q.predicate_count() == 5));
    }

    #[test]
    fn join_workload_has_join_spec() {
        let ds = dataset();
        let queries = generate_queries(&ds, 10, &QueryGenConfig::join(), 3);
        assert!(queries.iter().all(|q| q.is_join()));
        assert!(queries
            .iter()
            .all(|q| q.join.as_ref().unwrap().right_table == "users"));
    }

    #[test]
    fn queries_have_varied_selectivities() {
        let ds = dataset();
        let queries = generate_workload(&ds, 30, 7);
        let mut sels = Vec::new();
        for q in &queries {
            let mut sel = 1.0;
            for p in &q.predicates {
                sel *= ds.db.true_selectivity("tweets", p).unwrap();
            }
            sels.push(sel);
        }
        let max = sels.iter().copied().fold(0.0f64, f64::max);
        let min = sels.iter().copied().fold(1.0f64, f64::min);
        assert!(
            max > min * 10.0 || min == 0.0,
            "selectivities should vary: {min}..{max}"
        );
    }

    #[test]
    fn binned_output_config_produces_bins() {
        let ds = dataset();
        let cfg = QueryGenConfig {
            binned_output: true,
            ..Default::default()
        };
        let queries = generate_queries(&ds, 5, &cfg, 9);
        assert!(queries
            .iter()
            .all(|q| matches!(q.output, OutputKind::BinnedCounts { .. })));
    }

    #[test]
    fn generated_queries_execute_against_the_dataset() {
        let ds = dataset();
        let queries = generate_workload(&ds, 5, 13);
        for q in &queries {
            let t = ds
                .db
                .execution_time_ms(q, &vizdb::hints::RewriteOption::original())
                .unwrap();
            assert!(t > 0.0);
        }
    }
}
