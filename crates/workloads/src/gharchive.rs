//! GitHub-Archive-style event stream (§4.2).
//!
//! The paper loads January 2020 of gharchive.org (JSON push events) and runs
//! three microbenchmarks: COPY ingest against a trigram GIN index, a
//! dashboard query over commit messages, and an INSERT..SELECT
//! transformation. The archive itself is not redistributable here, so this
//! generator produces a deterministic synthetic stream with the same shape:
//! `{"created_at": ..., "type": ..., "payload": {"commits": [{"message": ...}]}}`.

use crate::runner::SqlRunner;
use pgmini::error::PgResult;
use pgmini::types::{Datum, Json, Row};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Schema + index of §4.2 (keyed by a synthetic event id, as in the paper).
pub fn schema_statements() -> Vec<String> {
    vec![
        "CREATE TABLE github_events (event_id text PRIMARY KEY, data jsonb)".into(),
        "CREATE INDEX text_search_idx ON github_events USING gin \
         ((jsonb_path_query_array(data, '$.payload.commits[*].message')::text))"
            .into(),
    ]
}

pub fn distribution_statement() -> String {
    "SELECT create_distributed_table('github_events', 'event_id')".to_string()
}

/// ~1.5 KB of JSON per event in the real archive.
pub const SIM_ROW_WIDTH: u32 = 1500;

const WORDS: &[&str] = &[
    "fix", "bug", "update", "docs", "refactor", "test", "cleanup", "feature", "merge",
    "bump", "version", "improve", "performance", "revert", "typo", "lint", "ci", "api",
    "planner", "index", "cache", "query", "shard", "deadlock",
];

/// Fraction of commit messages mentioning "postgres" (the dashboard query's
/// selectivity knob).
pub const POSTGRES_MENTION_RATE: f64 = 0.02;

/// A deterministic stream of events for a given day.
pub struct EventGenerator {
    rng: StdRng,
    day: u32,
    seq: u64,
}

impl EventGenerator {
    pub fn new(day: u32, seed: u64) -> Self {
        EventGenerator { rng: StdRng::seed_from_u64(seed ^ (day as u64) << 32), day, seq: 0 }
    }

    fn message(&mut self) -> String {
        let n = self.rng.random_range(3..9);
        let mut words: Vec<&str> = (0..n)
            .map(|_| WORDS[self.rng.random_range(0..WORDS.len())])
            .collect();
        if self.rng.random_bool(POSTGRES_MENTION_RATE) {
            let pos = self.rng.random_range(0..words.len());
            words[pos] = if self.rng.random_bool(0.5) { "postgres" } else { "postgresql" };
        }
        words.join(" ")
    }

    /// Next event as a `(event_id, data)` row.
    pub fn next_event(&mut self) -> Row {
        self.seq += 1;
        let hour = self.rng.random_range(0..24u32);
        let minute = self.rng.random_range(0..60u32);
        let event_type = match self.rng.random_range(0..10u32) {
            0..6 => "PushEvent",
            6..8 => "IssuesEvent",
            _ => "WatchEvent",
        };
        let commits: Vec<Json> = if event_type == "PushEvent" {
            (0..self.rng.random_range(1..4u32))
                .map(|_| Json::obj(vec![("message", Json::str(&self.message()))]))
                .collect()
        } else {
            Vec::new()
        };
        let data = Json::obj(vec![
            (
                "created_at",
                Json::str(&format!("2020-01-{:02} {hour:02}:{minute:02}:00", self.day)),
            ),
            ("type", Json::str(event_type)),
            (
                "actor",
                Json::obj(vec![("id", Json::Number(self.rng.random_range(1..100000) as f64))]),
            ),
            ("payload", Json::obj(vec![("commits", Json::Array(commits))])),
        ]);
        vec![
            Datum::text(format!("evt-{:02}-{:08x}", self.day, self.seq)),
            Datum::json(data),
        ]
    }

    /// A batch of `n` events.
    pub fn batch(&mut self, n: usize) -> Vec<Row> {
        (0..n).map(|_| self.next_event()).collect()
    }
}

/// Load `events` events for `day` via COPY.
pub fn load_day(r: &mut dyn SqlRunner, day: u32, events: usize, seed: u64) -> PgResult<u64> {
    let mut generator = EventGenerator::new(day, seed);
    let mut loaded = 0;
    let mut remaining = events;
    while remaining > 0 {
        let n = remaining.min(2000);
        loaded += r.copy("github_events", &[], generator.batch(n))?;
        remaining -= n;
    }
    Ok(loaded)
}

/// The Figure 7(b) dashboard query: commits mentioning "postgres" per day.
pub fn dashboard_query() -> String {
    "SELECT (data->>'created_at')::date, \
            sum(jsonb_array_length(data->'payload'->'commits')) \
     FROM github_events \
     WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text \
           ILIKE '%postgres%' \
     GROUP BY 1 ORDER BY 1 ASC"
        .to_string()
}

/// The Figure 7(c) transformation target table.
pub fn transformation_schema() -> Vec<String> {
    vec![
        "CREATE TABLE push_commits (event_id text, day timestamp, commit_count bigint)".into(),
    ]
}

pub fn transformation_distribution() -> String {
    "SELECT create_distributed_table('push_commits', 'event_id', 'github_events')".to_string()
}

/// The Figure 7(c) INSERT..SELECT: extract commit counts from push events.
/// Groups by the distribution column, so it runs fully co-located.
pub fn transformation_query() -> String {
    "INSERT INTO push_commits (event_id, day, commit_count) \
     SELECT event_id, (data->>'created_at')::date, \
            jsonb_array_length(data->'payload'->'commits') \
     FROM github_events \
     WHERE data->>'type' = 'PushEvent'"
        .to_string()
}

/// The commit-volume rollup over the Figure 7(c) transformation target: the
/// distributed evaluation arm serves its dashboard from this incrementally
/// maintained table (DESIGN.md §12) instead of re-aggregating `push_commits`
/// on every read.
pub fn rollup_definition() -> String {
    "CREATE ROLLUP commit_rollup AS SELECT day, count(*) AS pushes, \
     sum(commit_count) AS commits FROM push_commits GROUP BY day"
        .to_string()
}

/// The dashboard read against [`rollup_definition`]'s table. Staleness is
/// bounded by the on-read changefeed drain, so this stays current with the
/// transformation stream without rescanning it.
pub fn rollup_dashboard_query() -> String {
    "SELECT day, pushes, commits FROM commit_rollup ORDER BY day".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_deterministic() {
        let a: Vec<Row> = EventGenerator::new(1, 42).batch(50);
        let b: Vec<Row> = EventGenerator::new(1, 42).batch(50);
        assert_eq!(a, b);
        let c: Vec<Row> = EventGenerator::new(2, 42).batch(50);
        assert_ne!(a, c, "different days differ");
    }

    #[test]
    fn events_have_the_gharchive_shape() {
        let mut generator = EventGenerator::new(1, 7);
        let mut push_seen = false;
        for row in generator.batch(200) {
            let Datum::Json(j) = &row[1] else { panic!("jsonb column") };
            assert!(j.get("created_at").is_some());
            let msgs = j.path_query("$.payload.commits[*].message").unwrap();
            if j.get_text("type").as_deref() == Some("PushEvent") {
                push_seen = true;
                assert!(!msgs.is_empty());
            } else {
                assert!(msgs.is_empty());
            }
        }
        assert!(push_seen);
    }

    #[test]
    fn postgres_mentions_near_target_rate() {
        let mut generator = EventGenerator::new(1, 99);
        let mut commits = 0u32;
        let mut mentions = 0u32;
        for row in generator.batch(5_000) {
            let Datum::Json(j) = &row[1] else { panic!() };
            for m in j.path_query("$.payload.commits[*].message").unwrap() {
                commits += 1;
                if m.as_text().contains("postgres") {
                    mentions += 1;
                }
            }
        }
        let rate = mentions as f64 / commits as f64;
        assert!((rate - POSTGRES_MENTION_RATE).abs() < 0.01, "{rate}");
    }

    #[test]
    fn queries_parse() {
        for s in schema_statements() {
            sqlparse::parse(&s).unwrap();
        }
        sqlparse::parse(&dashboard_query()).unwrap();
        sqlparse::parse(&transformation_query()).unwrap();
        sqlparse::parse(&rollup_definition()).unwrap();
        sqlparse::parse(&rollup_dashboard_query()).unwrap();
    }
}
