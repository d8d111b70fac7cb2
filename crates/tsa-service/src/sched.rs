//! Weighted fair scheduling: a bounded multi-lane queue with deficit
//! round-robin service across per-client lanes.
//!
//! The engine's original admission queue was a single FIFO — one heavy
//! tenant could fill it and starve everyone behind it. [`FairQueue`]
//! keeps the same bounded-capacity, blocking/non-blocking push and
//! blocking pop contract, but partitions buffered jobs into *lanes*
//! keyed by the request's optional `client` field and serves lanes with
//! deficit round-robin (DRR):
//!
//! * **FIFO within a lane** — each lane is a `VecDeque`; a client's own
//!   jobs never reorder.
//! * **No starvation across lanes** — every nonempty lane is visited
//!   once per rotation and served up to `weight` items on its turn, so
//!   a lane waits at most the sum of the other active lanes' weights
//!   before its next pop.
//! * **Work conservation** — `pop` returns an item whenever any lane is
//!   nonempty; an idle lane cedes its turn immediately.
//!
//! With a single lane (every request leaves `client` empty) DRR
//! degenerates to exactly the old FIFO: pops drain the one lane in
//! insertion order, so existing single-tenant behavior is unchanged.
//!
//! The capacity bound is global, not per-lane — per-client isolation at
//! admission time is the token-bucket/quota layer's job (see
//! `engine::ClientGovernor`); this queue only guarantees that whatever
//! was admitted is *served* fairly.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; the rejected item is handed back.
    Full(T),
    /// All receivers are gone (engine shut down); item handed back.
    Closed(T),
}

/// One per-client lane: its buffered items plus DRR service state.
#[derive(Debug)]
struct Lane<T> {
    key: String,
    items: VecDeque<T>,
    /// Items this lane may still pop in the current rotation; refreshed
    /// to `weight` when the lane reaches the head of the active list.
    deficit: u64,
    /// Items granted per rotation (quantum). Defaults to 1: plain
    /// round-robin across clients.
    weight: u64,
}

#[derive(Debug)]
struct State<T> {
    /// All lanes ever seen, in first-seen order (stable for stats).
    lanes: Vec<Lane<T>>,
    /// Indices into `lanes` of nonempty lanes, in service order.
    active: VecDeque<usize>,
    /// True once every producer handle has been dropped.
    producers: usize,
    /// True once every receiver handle has been dropped.
    receivers: usize,
}

impl<T> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("depth", &self.depth.load(Ordering::Relaxed))
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signaled when an item arrives or the queue closes.
    items: Condvar,
    /// Signaled when a pop frees capacity.
    space: Condvar,
    depth: AtomicUsize,
    capacity: usize,
}

impl<T> Shared<T> {
    /// Append to `key`'s lane (creating it on first sight). Caller has
    /// already reserved capacity.
    fn enqueue(&self, state: &mut State<T>, key: &str, item: T) {
        let idx = match state.lanes.iter().position(|l| l.key == key) {
            Some(i) => i,
            None => {
                state.lanes.push(Lane {
                    key: key.to_string(),
                    items: VecDeque::new(),
                    deficit: 0,
                    weight: 1,
                });
                state.lanes.len() - 1
            }
        };
        let was_empty = state.lanes[idx].items.is_empty();
        state.lanes[idx].items.push_back(item);
        if was_empty {
            state.active.push_back(idx);
        }
        self.items.notify_one();
    }

    /// DRR pop: serve the lane at the head of the active list, rotating
    /// it to the back once its deficit for this visit is spent.
    fn dequeue(&self, state: &mut State<T>) -> Option<T> {
        let &idx = state.active.front()?;
        let lane = &mut state.lanes[idx];
        if lane.deficit == 0 {
            lane.deficit = lane.weight.max(1);
        }
        let item = lane.items.pop_front()?;
        lane.deficit -= 1;
        if lane.items.is_empty() {
            // An emptied lane leaves the rotation and forfeits any
            // remaining deficit — no credit banking across idle spells.
            lane.deficit = 0;
            state.active.pop_front();
        } else if lane.deficit == 0 {
            state.active.pop_front();
            state.active.push_back(idx);
        }
        Some(item)
    }
}

/// Producer handle of a bounded DRR queue (see module docs). Cloning
/// registers another producer; the queue closes for consumers when the
/// last producer drops.
#[derive(Debug)]
pub struct FairQueue<T> {
    shared: Arc<Shared<T>>,
}

/// Consumer handle of a bounded DRR queue; cloned into each worker.
#[derive(Debug)]
pub struct FairReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a bounded fair queue (capacity is clamped to at least 1).
pub fn fair_queue<T>(capacity: usize) -> (FairQueue<T>, FairReceiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            lanes: Vec::new(),
            active: VecDeque::new(),
            producers: 1,
            receivers: 1,
        }),
        items: Condvar::new(),
        space: Condvar::new(),
        depth: AtomicUsize::new(0),
        capacity: capacity.max(1),
    });
    (
        FairQueue {
            shared: Arc::clone(&shared),
        },
        FairReceiver { shared },
    )
}

impl<T> Clone for FairQueue<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().producers += 1;
        FairQueue {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for FairQueue<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock();
        state.producers -= 1;
        if state.producers == 0 {
            // Wake poppers so they can observe the close.
            self.shared.items.notify_all();
        }
    }
}

impl<T> Clone for FairReceiver<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().receivers += 1;
        FairReceiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for FairReceiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock();
        state.receivers -= 1;
        if state.receivers == 0 {
            self.shared.space.notify_all();
        }
    }
}

impl<T> FairQueue<T> {
    /// Enqueue without blocking: refused with [`PushError::Full`] when
    /// the global bound is reached, [`PushError::Closed`] when every
    /// receiver is gone.
    pub fn try_push(&self, key: &str, item: T) -> Result<(), PushError<T>> {
        let mut state = self.shared.state.lock();
        if state.receivers == 0 {
            return Err(PushError::Closed(item));
        }
        if self.shared.depth.load(Ordering::SeqCst) >= self.shared.capacity {
            return Err(PushError::Full(item));
        }
        self.shared.depth.fetch_add(1, Ordering::SeqCst);
        self.shared.enqueue(&mut state, key, item);
        Ok(())
    }

    /// Enqueue, blocking while the queue is at capacity. Fails only when
    /// every receiver is gone.
    pub fn push_blocking(&self, key: &str, item: T) -> Result<(), PushError<T>> {
        let mut state = self.shared.state.lock();
        loop {
            if state.receivers == 0 {
                return Err(PushError::Closed(item));
            }
            if self.shared.depth.load(Ordering::SeqCst) < self.shared.capacity {
                self.shared.depth.fetch_add(1, Ordering::SeqCst);
                self.shared.enqueue(&mut state, key, item);
                return Ok(());
            }
            self.shared.space.wait(&mut state);
        }
    }

    /// Set the DRR weight (items served per rotation) of `key`'s lane,
    /// creating the lane if it does not exist yet. Weight 0 is clamped
    /// to 1.
    pub fn set_weight(&self, key: &str, weight: u64) {
        let mut state = self.shared.state.lock();
        match state.lanes.iter_mut().find(|l| l.key == key) {
            Some(lane) => lane.weight = weight.max(1),
            None => state.lanes.push(Lane {
                key: key.to_string(),
                items: VecDeque::new(),
                deficit: 0,
                weight: weight.max(1),
            }),
        }
    }

    /// Number of buffered items across all lanes.
    pub fn depth(&self) -> usize {
        self.shared.depth.load(Ordering::SeqCst)
    }

    /// The configured global bound.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl<T> FairReceiver<T> {
    /// Blocking DRR pop. Returns `None` once every producer has dropped
    /// and all lanes are drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.shared.state.lock();
        loop {
            if let Some(item) = self.shared.dequeue(&mut state) {
                self.shared.depth.fetch_sub(1, Ordering::SeqCst);
                self.shared.space.notify_one();
                return Some(item);
            }
            if state.producers == 0 {
                return None;
            }
            self.shared.items.wait(&mut state);
        }
    }

    /// Number of buffered items across all lanes.
    pub fn depth(&self) -> usize {
        self.shared.depth.load(Ordering::SeqCst)
    }

    /// Per-lane buffered-item counts, in first-seen lane order. Lanes
    /// that have gone idle stay listed (depth 0) so stats keep naming
    /// every client seen.
    pub fn lane_depths(&self) -> Vec<(String, usize)> {
        let state = self.shared.state.lock();
        state
            .lanes
            .iter()
            .map(|l| (l.key.clone(), l.items.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_lane_is_fifo() {
        let (q, rx) = fair_queue::<u32>(8);
        for i in 0..5 {
            q.try_push("", i).unwrap();
        }
        let got: Vec<u32> = (0..5).map(|_| rx.pop().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_is_reported_with_the_item() {
        let (q, _rx) = fair_queue::<u32>(2);
        q.try_push("a", 1).unwrap();
        q.try_push("b", 2).unwrap();
        match q.try_push("c", 3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn closed_queue_rejects_pushes() {
        let (q, rx) = fair_queue::<u32>(2);
        drop(rx);
        match q.try_push("", 9) {
            Err(PushError::Closed(9)) => {}
            other => panic!("expected Closed(9), got {other:?}"),
        }
        match q.push_blocking("", 9) {
            Err(PushError::Closed(9)) => {}
            other => panic!("expected Closed(9), got {other:?}"),
        }
    }

    #[test]
    fn pop_returns_none_after_producers_drop() {
        let (q, rx) = fair_queue::<u32>(4);
        q.try_push("x", 7).unwrap();
        drop(q);
        assert_eq!(rx.pop(), Some(7));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn round_robin_interleaves_two_lanes() {
        let (q, rx) = fair_queue::<(char, u32)>(16);
        for i in 0..3 {
            q.try_push("a", ('a', i)).unwrap();
        }
        for i in 0..3 {
            q.try_push("b", ('b', i)).unwrap();
        }
        let got: Vec<(char, u32)> = (0..6).map(|_| rx.pop().unwrap()).collect();
        // Lane a was active first; unit weights alternate a, b, a, b…
        assert_eq!(
            got,
            vec![('a', 0), ('b', 0), ('a', 1), ('b', 1), ('a', 2), ('b', 2)]
        );
    }

    #[test]
    fn weights_scale_service_share() {
        let (q, rx) = fair_queue::<(char, u32)>(32);
        q.set_weight("big", 3);
        for i in 0..6 {
            q.try_push("big", ('B', i)).unwrap();
        }
        for i in 0..2 {
            q.try_push("small", ('s', i)).unwrap();
        }
        let got: Vec<char> = (0..8).map(|_| rx.pop().unwrap().0).collect();
        assert_eq!(got, vec!['B', 'B', 'B', 's', 'B', 'B', 'B', 's']);
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let (q, rx) = fair_queue::<u32>(1);
        q.try_push("", 1).unwrap();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push_blocking("", 2));
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(rx.pop(), Some(1));
        pusher.join().unwrap().unwrap();
        assert_eq!(rx.pop(), Some(2));
    }

    #[test]
    fn lane_depths_track_buffered_items() {
        let (q, rx) = fair_queue::<u32>(8);
        q.try_push("", 0).unwrap();
        q.try_push("tenant", 1).unwrap();
        q.try_push("tenant", 2).unwrap();
        let depths = rx.lane_depths();
        assert_eq!(depths, vec![(String::new(), 1), ("tenant".to_string(), 2)]);
        while rx.depth() > 0 {
            rx.pop();
        }
        assert!(rx.lane_depths().iter().all(|(_, d)| *d == 0));
    }

    #[test]
    fn depth_settles_to_zero_under_mpmc_load() {
        let (q, rx) = fair_queue::<usize>(8);
        let mut producers = Vec::new();
        for p in 0..4 {
            let q = q.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..50 {
                    q.push_blocking(&format!("c{p}"), p * 1000 + i).unwrap();
                }
            }));
        }
        drop(q);
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let rx = rx.clone();
            consumers.push(std::thread::spawn(move || {
                let mut n = 0usize;
                while rx.pop().is_some() {
                    n += 1;
                }
                n
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 200);
        assert_eq!(rx.depth(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A scripted fill: up to 4 lanes with arbitrary item counts and
    /// weights, interleaved pushes, then a full single-threaded drain.
    fn drain_order(pushes: &[(u8, u32)], weights: &[(u8, u64)], capacity: usize) -> Vec<(u8, u32)> {
        let (q, rx) = fair_queue::<(u8, u32)>(capacity.max(pushes.len()));
        for &(lane, w) in weights {
            q.set_weight(&format!("lane{lane}"), w);
        }
        for &(lane, seq) in pushes {
            q.try_push(&format!("lane{lane}"), (lane, seq)).unwrap();
        }
        drop(q);
        let mut out = Vec::new();
        while let Some(item) = rx.pop() {
            out.push(item);
        }
        out
    }

    proptest! {
        /// Work conservation: every pushed item is popped, exactly once.
        #[test]
        fn work_conserving(
            pushes in prop::collection::vec((0u8..4, 0u32..1000), 0..64)
        ) {
            let mut tagged: Vec<(u8, u32)> = Vec::new();
            let mut counters = [0u32; 4];
            for &(lane, _) in &pushes {
                tagged.push((lane, counters[lane as usize]));
                counters[lane as usize] += 1;
            }
            let mut got = drain_order(&tagged, &[], 64);
            let mut want = tagged.clone();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        /// FIFO within a lane: for every lane, sequence numbers appear
        /// in increasing order in the drain.
        #[test]
        fn fifo_within_each_lane(
            pushes in prop::collection::vec(0u8..4, 0..64),
            weights in prop::collection::vec((0u8..4, 1u64..5), 0..4)
        ) {
            let mut tagged: Vec<(u8, u32)> = Vec::new();
            let mut counters = [0u32; 4];
            for &lane in &pushes {
                tagged.push((lane, counters[lane as usize]));
                counters[lane as usize] += 1;
            }
            let got = drain_order(&tagged, &weights, 64);
            for lane in 0u8..4 {
                let seqs: Vec<u32> = got
                    .iter()
                    .filter(|(l, _)| *l == lane)
                    .map(|&(_, s)| s)
                    .collect();
                prop_assert!(
                    seqs.windows(2).all(|w| w[0] < w[1]),
                    "lane {} reordered: {:?}", lane, seqs
                );
            }
        }

        /// No starvation: a lane that stays nonempty is served within
        /// one full rotation — at most `sum(weights)` consecutive pops
        /// go elsewhere. Checked online against the queue's own lane
        /// depths, so the bound holds at every pop, not just on average.
        #[test]
        fn no_lane_starves(
            pushes in prop::collection::vec(0u8..4, 16..96),
            weights in prop::collection::vec(1u64..4, 4)
        ) {
            let (q, rx) = fair_queue::<(u8, u32)>(128);
            for (i, &w) in weights.iter().enumerate() {
                q.set_weight(&format!("lane{i}"), w);
            }
            let mut counters = [0u32; 4];
            for &lane in &pushes {
                q.try_push(&format!("lane{lane}"), (lane, counters[lane as usize]))
                    .unwrap();
                counters[lane as usize] += 1;
            }
            drop(q);
            let rotation: usize = weights.iter().sum::<u64>() as usize;
            // Pops since each lane was last served while it stayed
            // nonempty the whole time.
            let mut since = [0usize; 4];
            loop {
                let depths = rx.lane_depths();
                let nonempty: Vec<bool> = (0..4)
                    .map(|i| {
                        depths
                            .iter()
                            .any(|(k, d)| k == &format!("lane{i}") && *d > 0)
                    })
                    .collect();
                let Some((served, _)) = rx.pop() else { break };
                for lane in 0..4usize {
                    if lane == served as usize {
                        since[lane] = 0;
                    } else if nonempty[lane] {
                        since[lane] += 1;
                        prop_assert!(
                            since[lane] <= rotation,
                            "lane {} waited {} pops (rotation {})",
                            lane, since[lane], rotation
                        );
                    } else {
                        since[lane] = 0; // empty lanes cannot starve
                    }
                }
            }
        }
    }
}
