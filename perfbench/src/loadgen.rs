//! The benchmark's own request generator.
//!
//! *Open loop*: requests fall due on a fixed-rate schedule whether or not
//! earlier ones have completed, like independent users; each request's
//! latency runs from the instant it was **due**, so a stall also charges
//! the wait it imposes on the requests queued behind it. *Closed loop*: each
//! lane sends its next request only after the previous reply, which
//! measures capacity.
//!
//! Lanes are threads; the caller keeps their number at or below the CPU
//! count. Against the server a closed-loop lane is one keep-alive
//! connection, and an open-loop lane is one connection carrying pipelined
//! requests with two threads, a sender and a reply reader, so the open loop
//! runs half as many; in process the lanes share one queue, and a lane
//! extracts features itself and calls
//! [`MvgClassifier::predict_from_feature_rows`], bypassing HTTP, JSON and
//! the batcher.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tsg_core::{extract_series_features, MvgClassifier};
use tsg_serve::{http, Json};
use tsg_ts::Dataset;

/// How long a lane waits for outstanding replies after its last send
/// before counting them as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Lead time between building a phase's schedule and its first due time,
/// so every lane is running before the first request falls due.
const START_LEAD: Duration = Duration::from_millis(20);

/// Offset of request `i` from the phase start at `rate` requests/s.
pub fn due_offset(rate: f64, i: usize) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Requests of a `count`-request phase that lane `lane` of `lanes` sends,
/// in due order: round-robin, so lanes share the rate evenly.
pub fn lane_requests(count: usize, lanes: usize, lane: usize) -> Vec<usize> {
    (lane..count).step_by(lanes.max(1)).collect()
}

/// What became of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// A 200 with the expected prediction.
    Ok {
        /// Completion minus due time (open loop) or send time (closed loop).
        latency_ms: f64,
        /// Send time minus due time: how late the generator ran (in
        /// process, how long the request waited for a free lane).
        late_ms: f64,
        /// Series in the batch that served the request (in process, the
        /// request's own series).
        batch_size: usize,
    },
    /// Refused by backpressure (HTTP 429).
    Rejected,
    /// Any other status, a transport error, a timeout, or a wrong answer.
    Failed,
    /// A 200 whose prediction differs from the in-process prediction.
    Mismatch,
}

/// Everything one phase produced, in request order.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    /// One outcome per request sent.
    pub outcomes: Vec<Outcome>,
    /// Wall time from the first due time to the last reply.
    pub elapsed_s: f64,
    /// Send instant of each request, for spans (open loop only; empty
    /// otherwise).
    pub sent_at: Vec<Option<Instant>>,
}

impl PhaseReport {
    /// Appends another chunk of the same phase.
    pub fn extend(&mut self, other: PhaseReport) {
        self.outcomes.extend(other.outcomes);
        self.sent_at.extend(other.sent_at);
        self.elapsed_s += other.elapsed_s;
    }

    /// Requests sent.
    pub fn sent(&self) -> usize {
        self.outcomes.len()
    }

    /// Latencies of the successful requests, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Ok { latency_ms, .. } => Some(*latency_ms),
                _ => None,
            })
            .collect()
    }

    /// Generator lateness of the successful requests, in ms.
    pub fn late_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Ok { late_ms, .. } => Some(*late_ms),
                _ => None,
            })
            .collect()
    }

    /// Mean batch size over the successful requests.
    pub fn batch_size_mean(&self) -> f64 {
        let sizes: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Ok { batch_size, .. } => Some(*batch_size as f64),
                _ => None,
            })
            .collect();
        if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<f64>() / sizes.len() as f64
        }
    }

    /// Count of outcomes matching `pred`.
    pub fn count(&self, pred: impl Fn(&Outcome) -> bool) -> usize {
        self.outcomes.iter().filter(|o| pred(o)).count()
    }

    /// Successful requests.
    pub fn ok(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Ok { .. }))
    }

    /// Requests refused with 429.
    pub fn rejected(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Rejected))
    }

    /// Requests that failed, including wrong answers.
    pub fn failed(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Failed | Outcome::Mismatch))
    }

    /// Successful requests whose answer differed from the in-process one.
    pub fn mismatched(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Mismatch))
    }

    /// Requests answered with a 200 within `limit_ms`.
    pub fn within(&self, limit_ms: f64) -> usize {
        self.count(|o| matches!(o, Outcome::Ok { latency_ms, .. } if *latency_ms <= limit_ms))
    }

    /// Successful completions per second.
    pub fn completion_rate(&self) -> f64 {
        self.ok() as f64 / self.elapsed_s
    }
}

/// Where a lane sends its requests.
pub enum Target<'a> {
    /// The server's classify route; `requests[i]` is the full HTTP request
    /// for pool item `i`.
    Http {
        /// Server address.
        addr: SocketAddr,
        /// Pre-built request bytes, one per pool item.
        requests: &'a [Vec<u8>],
    },
    /// In-process prediction of each pool item's series.
    InProcess {
        /// The fitted model.
        model: &'a MvgClassifier,
        /// The series of each pool item.
        items: &'a [Dataset],
    },
}

impl Target<'_> {
    fn n_items(&self) -> usize {
        match self {
            Target::Http { requests, .. } => requests.len(),
            Target::InProcess { items, .. } => items.len(),
        }
    }
}

/// Runs `count` requests at `rate` requests/s over `lanes` lanes. Request
/// `i` sends item `(first_item + i) % n` of the request pool, whose
/// in-process predictions are `expected[..]`.
pub fn open_loop(
    target: &Target<'_>,
    expected: &[Vec<usize>],
    lanes: usize,
    rate: f64,
    count: usize,
    first_item: usize,
) -> PhaseReport {
    let n = target.n_items();
    // against the server a lane is two threads, a sender and a reply
    // reader, so half as many lanes keep the thread count
    let lanes = match target {
        Target::Http { .. } => (lanes / 2).max(1),
        Target::InProcess { .. } => lanes,
    };
    let start = Instant::now() + START_LEAD;
    let mut outcomes = vec![Outcome::Failed; count];
    let mut sent_at = vec![None; count];
    // in process the lanes share one queue, like a server's workers: the
    // next due request goes to whichever lane is free
    let claimed = AtomicUsize::new(0);
    let finished: Vec<Instant> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let claimed = &claimed;
                scope.spawn(move || {
                    let due_of = |i: usize| (i, start + due_offset(rate, i), (first_item + i) % n);
                    let result = match target {
                        Target::Http { addr, requests } => {
                            let due: Vec<_> = lane_requests(count, lanes, lane)
                                .into_iter()
                                .map(due_of)
                                .collect();
                            http_open_lane(*addr, requests, expected, &due)
                        }
                        Target::InProcess { model, items } => {
                            inprocess_open_lane(model, items, expected, || {
                                let i = claimed.fetch_add(1, Ordering::Relaxed);
                                (i < count).then(|| due_of(i))
                            })
                        }
                    };
                    (result, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (lane_result, done) = h.join().expect("generator lane panicked");
                for (i, outcome, at) in lane_result {
                    outcomes[i] = outcome;
                    sent_at[i] = at;
                }
                done
            })
            .collect()
    });
    let end = finished.into_iter().max().unwrap_or(start);
    PhaseReport {
        outcomes,
        elapsed_s: end.saturating_duration_since(start).as_secs_f64(),
        sent_at,
    }
}

/// Runs `lanes` closed-loop clients for `duration`, each sending its next
/// request as soon as the previous reply arrived.
pub fn closed_loop(
    target: &Target<'_>,
    expected: &[Vec<usize>],
    lanes: usize,
    duration: Duration,
    first_item: usize,
) -> PhaseReport {
    let n = target.n_items();
    let start = Instant::now();
    let end = start + duration;
    let mut outcomes = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                scope.spawn(move || {
                    let mut item = (first_item + lane * n / lanes.max(1)) % n;
                    let mut next = move || {
                        let this = item;
                        item = (item + 1) % n;
                        this
                    };
                    match target {
                        Target::Http { addr, requests } => {
                            http_closed_lane(*addr, requests, expected, end, &mut next)
                        }
                        Target::InProcess { model, items } => {
                            inprocess_closed_lane(model, items, expected, end, &mut next)
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            outcomes.extend(h.join().expect("generator lane panicked"));
        }
    });
    PhaseReport {
        outcomes,
        elapsed_s: start.elapsed().as_secs_f64(),
        sent_at: Vec::new(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Extracts on the calling lane's thread and predicts from the rows: the
/// path of a caller with workers of its own, bit-identical to
/// [`MvgClassifier::predict`] without spawning a pool per call.
fn inprocess_call(model: &MvgClassifier, item: &Dataset, expected: &[usize]) -> bool {
    let features = &model.config().features;
    let rows = item
        .series()
        .iter()
        .map(|s| extract_series_features(s, features))
        .collect();
    matches!(model.predict_from_feature_rows(rows), Ok(p) if p == expected)
}

type LaneResult = Vec<(usize, Outcome, Option<Instant>)>;

fn inprocess_open_lane(
    model: &MvgClassifier,
    items: &[Dataset],
    expected: &[Vec<usize>],
    mut next: impl FnMut() -> Option<(usize, Instant, usize)>,
) -> LaneResult {
    let mut out = Vec::new();
    while let Some((i, at, item)) = next() {
        sleep_until(at);
        let sent = Instant::now();
        let outcome = if inprocess_call(model, &items[item], &expected[item]) {
            Outcome::Ok {
                latency_ms: ms(sent.elapsed() + (sent - at)),
                late_ms: ms(sent - at),
                batch_size: items[item].len(),
            }
        } else {
            Outcome::Mismatch
        };
        out.push((i, outcome, Some(sent)));
    }
    out
}

fn inprocess_closed_lane(
    model: &MvgClassifier,
    items: &[Dataset],
    expected: &[Vec<usize>],
    end: Instant,
    next: &mut dyn FnMut() -> usize,
) -> Vec<Outcome> {
    let mut out = Vec::new();
    while Instant::now() < end {
        let item = next();
        let sent = Instant::now();
        out.push(if inprocess_call(model, &items[item], &expected[item]) {
            Outcome::Ok {
                latency_ms: ms(sent.elapsed()),
                late_ms: 0.0,
                batch_size: 1,
            }
        } else {
            Outcome::Mismatch
        });
    }
    out
}

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Takes one complete response off the front of `buf`, if there is one.
/// Responses carry `Content-Length` (the server never chunks).
pub fn take_reply(buf: &mut Vec<u8>) -> Result<Option<Reply>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|e| e.to_string())?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or_else(|| "response without Content-Length".to_string())?;
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    buf.drain(..total);
    Ok(Some(Reply { status, body }))
}

/// Classifies a classify reply: a 200 must carry exactly the expected
/// prediction.
fn judge(reply: &Reply, expected: &[usize], latency: Duration, late: Duration) -> Outcome {
    match reply.status {
        200 => {
            let parsed = std::str::from_utf8(&reply.body)
                .ok()
                .and_then(|text| Json::parse(text).ok());
            let Some(json) = parsed else {
                return Outcome::Failed;
            };
            let predictions: Option<Vec<usize>> = json
                .get("predictions")
                .and_then(|p| p.as_array())
                .and_then(|p| p.iter().map(Json::as_usize).collect());
            let batch_size = json.get("batch_size").and_then(|b| b.as_usize());
            match (predictions, batch_size) {
                (Some(p), Some(batch_size)) if p == expected => Outcome::Ok {
                    latency_ms: ms(latency),
                    late_ms: ms(late),
                    batch_size,
                },
                _ => Outcome::Mismatch,
            }
        }
        429 => Outcome::Rejected,
        _ => Outcome::Failed,
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One pipelined keep-alive connection carrying the requests `due`. The
/// calling thread sends each request at its due time, sleeping in between
/// (a socket read timeout would wake it on the kernel's tick, up to 8 ms
/// late); a second thread reads the replies, which arrive in send order.
fn http_open_lane(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    expected: &[Vec<usize>],
    due: &[(usize, Instant, usize)],
) -> LaneResult {
    let mut results: LaneResult = due
        .iter()
        .map(|&(i, _, _)| (i, Outcome::Failed, None))
        .collect();
    let Ok(mut stream) = connect(addr) else {
        return results;
    };
    let Ok(replies) = stream.try_clone() else {
        return results;
    };
    // (slot in `due`, send instant) of each request, queued before its
    // bytes go out, so the reader always finds a reply's request
    let (sent_tx, sent_rx) = mpsc::channel::<(usize, Instant)>();
    let judged = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_replies(replies, sent_rx, expected, due));
        for (slot, &(_, at, item)) in due.iter().enumerate() {
            sleep_until(at);
            let sent = Instant::now();
            results[slot].2 = Some(sent);
            if sent_tx.send((slot, sent)).is_err() || stream.write_all(&requests[item]).is_err() {
                break;
            }
        }
        drop(sent_tx);
        reader.join().expect("reply reader panicked")
    });
    for (slot, outcome) in judged {
        results[slot].1 = outcome;
    }
    results
}

/// Reads and judges the replies of one open-loop connection until every
/// request sent has one, or none came for [`DRAIN_TIMEOUT`].
fn read_replies(
    mut stream: TcpStream,
    sent: mpsc::Receiver<(usize, Instant)>,
    expected: &[Vec<usize>],
    due: &[(usize, Instant, usize)],
) -> Vec<(usize, Outcome)> {
    let mut judged = Vec::with_capacity(due.len());
    if stream.set_read_timeout(Some(DRAIN_TIMEOUT)).is_err() {
        return judged;
    }
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    while judged.len() < due.len() {
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
            // closed, failed, or silent past the drain timeout
            _ => return judged,
        }
        let done = Instant::now();
        loop {
            match take_reply(&mut buf) {
                Ok(Some(reply)) => {
                    // a reply with no request outstanding breaks the
                    // one-reply-per-request contract: stop judging
                    let Ok((slot, sent_at)) = sent.try_recv() else {
                        return judged;
                    };
                    let (_, at, item) = due[slot];
                    judged.push((
                        slot,
                        judge(&reply, &expected[item], done - at, sent_at - at),
                    ));
                }
                Ok(None) => break,
                Err(_) => return judged,
            }
        }
    }
    judged
}

fn http_closed_lane(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    expected: &[Vec<usize>],
    end: Instant,
    next: &mut dyn FnMut() -> usize,
) -> Vec<Outcome> {
    let mut out = Vec::new();
    let Ok(mut reader) = blocking_reader(addr, DRAIN_TIMEOUT) else {
        return vec![Outcome::Failed];
    };
    while Instant::now() < end {
        let item = next();
        let sent = Instant::now();
        let reply = reader
            .get_mut()
            .write_all(&requests[item])
            .and_then(|()| http::read_response(&mut reader));
        match reply {
            Ok((status, body)) => out.push(judge(
                &Reply { status, body },
                &expected[item],
                sent.elapsed(),
                Duration::ZERO,
            )),
            Err(_) => {
                out.push(Outcome::Failed);
                return out;
            }
        }
    }
    out
}

/// A connection to `addr` read through a buffer, with a read timeout.
fn blocking_reader(addr: SocketAddr, timeout: Duration) -> std::io::Result<BufReader<TcpStream>> {
    let stream = connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    Ok(BufReader::new(stream))
}

/// One blocking request/reply exchange on a fresh connection (fit, metrics
/// scrape, trace dump).
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> Result<Reply, String> {
    let mut reader = blocking_reader(addr, Duration::from_secs(120)).map_err(|e| e.to_string())?;
    http::send_request(reader.get_mut(), method, path, body).map_err(|e| e.to_string())?;
    let (status, body) = http::read_response(&mut reader).map_err(|e| e.to_string())?;
    Ok(Reply { status, body })
}

/// The full HTTP request classifying `series` with model `model`.
pub fn classify_request(model: &str, series: &Dataset) -> Vec<u8> {
    let body = Json::obj(vec![(
        "series",
        Json::Arr(
            series
                .series()
                .iter()
                .map(|s| Json::nums(s.values().iter().copied()))
                .collect(),
        ),
    )])
    .write();
    format!(
        "POST /models/{model}/classify HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_at_the_rate() {
        assert_eq!(due_offset(100.0, 0), Duration::ZERO);
        assert_eq!(due_offset(100.0, 1), Duration::from_millis(10));
        assert_eq!(due_offset(250.0, 500), Duration::from_secs(2));
        // spacing does not drift over a long phase
        let last = due_offset(333.0, 3330);
        assert!((last.as_secs_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn lanes_split_the_schedule_round_robin_and_cover_it_once() {
        let lanes: Vec<Vec<usize>> = (0..3).map(|l| lane_requests(10, 3, l)).collect();
        assert_eq!(lanes[0], vec![0, 3, 6, 9]);
        assert_eq!(lanes[1], vec![1, 4, 7]);
        assert_eq!(lanes[2], vec![2, 5, 8]);
        let mut all: Vec<usize> = lanes.concat();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // each lane's requests are in due order
        assert!(lanes.iter().all(|l| l.windows(2).all(|w| w[0] < w[1])));
    }

    #[test]
    fn replies_are_taken_whole_and_in_order() {
        let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab".to_vec();
        assert_eq!(
            take_reply(&mut buf).unwrap(),
            Some(Reply {
                status: 200,
                body: b"hi".to_vec()
            })
        );
        assert_eq!(take_reply(&mut buf).unwrap().unwrap().status, 429);
        // the third reply is incomplete and stays buffered
        assert_eq!(take_reply(&mut buf).unwrap(), None);
        buf.extend_from_slice(b"cde");
        assert_eq!(take_reply(&mut buf).unwrap().unwrap().body, b"abcde");
        assert!(buf.is_empty());
    }

    #[test]
    fn a_wrong_prediction_is_a_mismatch_not_a_success() {
        let reply = Reply {
            status: 200,
            body: br#"{"model":"m","version":1,"predictions":[3],"batch_size":2}"#.to_vec(),
        };
        let d = Duration::from_millis(4);
        assert!(matches!(
            judge(&reply, &[3], d, d),
            Outcome::Ok { batch_size: 2, .. }
        ));
        assert_eq!(judge(&reply, &[1], d, d), Outcome::Mismatch);
        assert_eq!(judge(&reply, &[3, 3], d, d), Outcome::Mismatch);
        let busy = Reply {
            status: 429,
            body: Vec::new(),
        };
        assert_eq!(judge(&busy, &[3], d, d), Outcome::Rejected);
    }
}
