//! In-memory spans for the traced replay.
//!
//! The harness records a span around each call it makes into a layer:
//! name, start, end, the span that caused it, and the request the span
//! belongs to. Nothing is written while a run measures; `--spans FILE`
//! dumps them when the benchmark ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Starts a new request: spans opened from here on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.epoch.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (and, after an early return, anything still open
    /// inside it).
    pub fn close(&mut self, id: usize) {
        let now = self.epoch.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: a span's duration minus the part its
    /// child spans cover, summed over all requests.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration();
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            *by_name.entry(span.name).or_insert(Duration::ZERO) +=
                span.duration().saturating_sub(covered);
        }
        by_name
    }

    /// `(Σ root durations, Σ durations of the roots' direct children)`:
    /// how much of the replays' wall time the layer spans account for.
    pub fn coverage(&self) -> (Duration, Duration) {
        let mut wall = Duration::ZERO;
        let mut children = Duration::ZERO;
        for span in &self.spans {
            match span.parent {
                None => wall += span.duration(),
                Some(parent) if self.spans[parent].parent.is_none() => {
                    children += span.duration();
                }
                Some(_) => {}
            }
        }
        (wall, children)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("request", Json::Num(span.request as f64)),
                        ("parent", span.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("name", Json::str(span.name)),
                        ("start_s", Json::Num(span.start.as_secs_f64())),
                        ("end_s", Json::Num(span.end.as_secs_f64())),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_direct_children() {
        let mut tracer = Tracer::new();
        tracer.next_request();
        let root = tracer.open("prepare");
        let round = tracer.open("cluster.round");
        let inner = tracer.open("inner");
        std::thread::sleep(Duration::from_millis(2));
        tracer.close(inner);
        tracer.close(round);
        let decode = tracer.open("rscode.decode");
        std::thread::sleep(Duration::from_millis(2));
        tracer.close(decode);
        tracer.close(root);

        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 1));

        let own = tracer.self_times();
        assert!(own["inner"] >= Duration::from_millis(2));
        assert!(own["cluster.round"] < Duration::from_millis(1));
        let (wall, children) = tracer.coverage();
        assert_eq!(wall, spans[0].duration());
        assert_eq!(children, spans[1].duration() + spans[3].duration());
        assert!(children <= wall);
    }

    #[test]
    fn closing_an_outer_span_closes_what_an_early_return_left_open() {
        let mut tracer = Tracer::new();
        let root = tracer.open("prepare");
        let _abandoned = tracer.open("rscode.decode");
        tracer.close(root);
        assert!(tracer.open.is_empty());
        let next = tracer.open("prepare");
        assert_eq!(tracer.spans()[next].parent, None);
    }
}
