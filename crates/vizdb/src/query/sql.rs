//! Rendering queries (and rewritten queries) as PostgreSQL-flavoured SQL strings.
//!
//! The rendered SQL is presentational: it is what the middleware would send to a real
//! backend and what the paper's figures show (hint comments, `LIMIT` clauses).
//! The simulator itself executes the structured
//! [`Query`] directly.

use crate::approx::ApproxRule;
use crate::hints::RewriteOption;
use crate::query::{OutputKind, Predicate, Query};
use crate::schema::TableSchema;

/// Renders `query`, rewritten according to `rewrite`, into a SQL string.
///
/// `schema` must be the base table's schema; `join_schema` the dimension table's schema
/// when the query joins two tables (attribute names fall back to `attr<i>` otherwise).
pub fn render_sql(
    query: &Query,
    rewrite: &RewriteOption,
    schema: Option<&TableSchema>,
    join_schema: Option<&TableSchema>,
) -> String {
    let mut sql = String::new();

    // 1. Hint comment block, in pg_hint_plan style.
    let mut hint_parts: Vec<String> = Vec::new();
    if rewrite.hints.forced {
        for (i, pred) in query.predicates.iter().enumerate() {
            let col = column_name(schema, pred.attr());
            if rewrite.hints.uses_index(i) {
                hint_parts.push(format!("Index-Scan(t {col})"));
            } else {
                hint_parts.push(format!("No-Index-Scan(t {col})"));
            }
        }
    }
    if let Some(method) = rewrite.hints.join_method {
        hint_parts.push(format!("{}(t u)", method.hint_name()));
    }
    if !hint_parts.is_empty() {
        sql.push_str(&format!("/*+ {} */\n", hint_parts.join(", ")));
    }

    // 2. SELECT list.
    match &query.output {
        OutputKind::Points {
            id_attr,
            point_attr,
        } => {
            sql.push_str(&format!(
                "SELECT t.{}, t.{}\n",
                column_name(schema, *id_attr),
                column_name(schema, *point_attr)
            ));
        }
        OutputKind::BinnedCounts { point_attr, .. } => {
            sql.push_str(&format!(
                "SELECT BIN_ID(t.{}), COUNT(*)\n",
                column_name(schema, *point_attr)
            ));
        }
        OutputKind::Count => sql.push_str("SELECT COUNT(*)\n"),
    }

    // 3. FROM clause.
    sql.push_str(&format!("  FROM {} t", query.table));
    if let Some(join) = &query.join {
        sql.push_str(&format!(", {} u", join.right_table));
    }
    sql.push('\n');

    // 4. WHERE clause.
    let mut conditions: Vec<String> = query
        .predicates
        .iter()
        .map(|p| render_predicate(p, "t", schema))
        .collect();
    if let Some(join) = &query.join {
        conditions.push(format!(
            "t.{} = u.{}",
            column_name(schema, join.left_attr),
            column_name(join_schema, join.right_attr)
        ));
        conditions.extend(
            join.right_predicates
                .iter()
                .map(|p| render_predicate(p, "u", join_schema)),
        );
    }
    if !conditions.is_empty() {
        sql.push_str(&format!(" WHERE {}\n", conditions.join("\n   AND ")));
    }

    // 5. GROUP BY for binned outputs.
    if let OutputKind::BinnedCounts { point_attr, .. } = &query.output {
        sql.push_str(&format!(
            " GROUP BY BIN_ID(t.{})\n",
            column_name(schema, *point_attr)
        ));
    }

    // 6. LIMIT: either the query's own limit or one injected by an approximation rule.
    if let Some(limit) = query.limit {
        sql.push_str(&format!(" LIMIT {limit}\n"));
    } else if let Some(ApproxRule::LimitPermille { permille }) = rewrite.approx {
        sql.push_str(&format!(
            " LIMIT {:.3}%% OF ESTIMATED CARDINALITY\n",
            permille as f64 / 10.0
        ));
    }

    sql.push(';');
    sql
}

fn column_name(schema: Option<&TableSchema>, attr: usize) -> String {
    schema
        .and_then(|s| s.column_name(attr).ok().map(str::to_string))
        .unwrap_or_else(|| format!("attr{attr}"))
}

fn render_predicate(pred: &Predicate, alias: &str, schema: Option<&TableSchema>) -> String {
    match pred {
        Predicate::KeywordContains { attr, keyword } => {
            format!(
                "{alias}.{} contains \"{keyword}\"",
                column_name(schema, *attr)
            )
        }
        Predicate::TimeRange { attr, range } => format!(
            "{alias}.{} BETWEEN {} AND {}",
            column_name(schema, *attr),
            range.start,
            range.end
        ),
        Predicate::SpatialRange { attr, rect } => format!(
            "{alias}.{} in (({:.2}, {:.2}), ({:.2}, {:.2}))",
            column_name(schema, *attr),
            rect.min_lon,
            rect.min_lat,
            rect.max_lon,
            rect.max_lat
        ),
        Predicate::NumericRange { attr, range } => format!(
            "{alias}.{} in [{}, {}]",
            column_name(schema, *attr),
            range.lo,
            range.hi
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::{HintSet, JoinMethod};
    use crate::query::{BinGrid, JoinSpec};
    use crate::schema::ColumnType;
    use crate::types::GeoRect;

    fn tweets_schema() -> TableSchema {
        TableSchema::new("tweets")
            .with_column("id", ColumnType::Int)
            .with_column("created_at", ColumnType::Timestamp)
            .with_column("coordinates", ColumnType::Geo)
            .with_column("text", ColumnType::Text)
            .with_column("user_id", ColumnType::Int)
    }

    fn sample_query() -> Query {
        Query::select("tweets")
            .filter(Predicate::keyword(3, "covid"))
            .filter(Predicate::time_range(1, 1_606_348_800, 1_606_435_200))
            .filter(Predicate::spatial_range(
                2,
                GeoRect::new(-124.4, 32.5, -114.1, 42.0),
            ))
            .output(OutputKind::BinnedCounts {
                point_attr: 2,
                grid: BinGrid::new(GeoRect::new(-125.0, 25.0, -66.0, 49.0), 64, 32),
            })
    }

    #[test]
    fn original_query_has_no_hint_comment() {
        let sql = render_sql(
            &sample_query(),
            &RewriteOption::original(),
            Some(&tweets_schema()),
            None,
        );
        assert!(!sql.contains("/*+"));
        assert!(sql.contains("SELECT BIN_ID(t.coordinates), COUNT(*)"));
        assert!(sql.contains("covid"));
        assert!(sql.contains("GROUP BY"));
        assert!(sql.ends_with(';'));
    }

    #[test]
    fn hinted_query_renders_index_hints() {
        let ro = RewriteOption::hinted(HintSet::with_mask(0b010));
        let sql = render_sql(&sample_query(), &ro, Some(&tweets_schema()), None);
        assert!(sql.contains("/*+"));
        assert!(sql.contains("Index-Scan(t created_at)"));
        assert!(sql.contains("No-Index-Scan(t text)"));
    }

    #[test]
    fn limit_rule_renders_limit_clause() {
        let ro =
            RewriteOption::approximate(HintSet::none(), ApproxRule::LimitPermille { permille: 40 });
        let sql = render_sql(&sample_query(), &ro, Some(&tweets_schema()), None);
        assert!(sql.contains("LIMIT 4.000"));
        assert!(
            sql.contains("FROM tweets t"),
            "a LIMIT rule keeps the base table"
        );
    }

    #[test]
    fn join_query_renders_join_condition_and_hint() {
        let users = TableSchema::new("users")
            .with_column("id", ColumnType::Int)
            .with_column("tweet_count", ColumnType::Int);
        let q = sample_query().join_with(JoinSpec {
            right_table: "users".into(),
            left_attr: 4,
            right_attr: 0,
            right_predicates: vec![Predicate::numeric_range(1, 100.0, 5000.0)],
        });
        let ro = RewriteOption::hinted(HintSet::with_mask(0b1).with_join(JoinMethod::NestLoop));
        let sql = render_sql(&q, &ro, Some(&tweets_schema()), Some(&users));
        assert!(sql.contains("Nest-Loop-Join(t u)"));
        assert!(sql.contains("t.user_id = u.id"));
        assert!(sql.contains("u.tweet_count in [100, 5000]"));
        assert!(sql.contains(", users u"));
    }

    #[test]
    fn missing_schema_falls_back_to_attr_names() {
        let sql = render_sql(&sample_query(), &RewriteOption::original(), None, None);
        assert!(sql.contains("attr3"));
    }
}
