//! Named shared arrays exchanged between M-tasks.
//!
//! The [`DataStore`] is the shared-memory stand-in for the re-distribution
//! operations of a distributed run: producers publish named arrays, later
//! tasks (possibly on other groups) read them.  The layer barrier of the
//! [`Team`](crate::Team) orders publications against consumption, matching
//! the paper's rule that re-distributions complete before the consumer
//! starts.
//!
//! For layer-granular recovery the store supports [`snapshot`]
//! (deep copy of every array) and [`restore`] (roll the contents back in
//! place, preserving the identity of surviving cells so old handles stay
//! valid).  The [`Team`](crate::Team) takes a snapshot at the start of a
//! layer when retries are enabled and restores it before re-running a
//! failed layer.
//!
//! [`snapshot`]: DataStore::snapshot
//! [`restore`]: DataStore::restore

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Concurrent map of named `Vec<f64>` arrays.
#[derive(Debug, Default)]
pub struct DataStore {
    map: RwLock<HashMap<String, Arc<RwLock<Vec<f64>>>>>,
    /// Bytes published through [`put`](Self::put) — the shared-memory
    /// proxy for re-distribution traffic, surfaced by the observability
    /// layer.
    bytes_written: AtomicU64,
}

/// A deep copy of a [`DataStore`]'s contents at one point in time.
///
/// Entries are sorted by name, so two snapshots compare equal exactly when
/// the stores they were taken from held the same arrays.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    entries: Vec<(String, Vec<f64>)>,
}

impl Snapshot {
    /// Names and lengths captured (sorted by name, for inspection).
    pub fn entries(&self) -> &[(String, Vec<f64>)] {
        &self.entries
    }

    /// Look up one captured array by name (entries are sorted by name).
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.entries[i].1.as_slice())
    }
}

/// A task may panic while holding a cell lock; the data is plain `Vec<f64>`
/// (no invariants can be torn), so recovery ignores std's lock poisoning.
fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

impl DataStore {
    /// An empty store.
    pub fn new() -> Arc<DataStore> {
        Arc::new(DataStore::default())
    }

    /// Insert or replace an array.
    pub fn put(&self, name: impl Into<String>, data: Vec<f64>) {
        let name = name.into();
        self.bytes_written
            .fetch_add((data.len() * 8) as u64, Ordering::Relaxed);
        let mut map = write(&self.map);
        match map.get(&name) {
            Some(cell) => *write(cell) = data,
            None => {
                map.insert(name, Arc::new(RwLock::new(data)));
            }
        }
    }

    /// Clone an array out of the store.
    pub fn get(&self, name: &str) -> Option<Vec<f64>> {
        self.handle(name).map(|h| read(&h).clone())
    }

    /// Shared handle to an array, if present.
    pub fn handle(&self, name: &str) -> Option<Arc<RwLock<Vec<f64>>>> {
        read(&self.map).get(name).cloned()
    }

    /// Run a closure over an array under the read lock.
    pub fn read<R>(&self, name: &str, f: impl FnOnce(&[f64]) -> R) -> Option<R> {
        self.handle(name).map(|h| f(&read(&h)))
    }

    /// Total bytes written through [`put`](Self::put) over the store's
    /// lifetime (monotonic; restores and removes don't subtract).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Names currently stored (sorted, for deterministic inspection).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = read(&self.map).keys().cloned().collect();
        names.sort();
        names
    }

    /// Remove an array.
    pub fn remove(&self, name: &str) -> Option<Vec<f64>> {
        write(&self.map)
            .remove(name)
            .map(|h| std::mem::take(&mut *write(&h)))
    }

    /// Deep-copy the current contents (see the module docs).
    ///
    /// Callers must ensure no writer is concurrently mutating the store if
    /// they need a consistent cut — the [`Team`](crate::Team) snapshots
    /// between layer barriers, where no task is running.
    pub fn snapshot(&self) -> Snapshot {
        let map = read(&self.map);
        let mut entries: Vec<(String, Vec<f64>)> = map
            .iter()
            .map(|(name, cell)| (name.clone(), read(cell).clone()))
            .collect();
        drop(map);
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { entries }
    }

    /// A fresh store populated from a snapshot — used as the private
    /// overlay of a hedge execution, which must see the layer-entry state
    /// untouched by its (possibly mid-write) primary.
    pub fn from_snapshot(snap: &Snapshot) -> Arc<DataStore> {
        let store = DataStore::new();
        for (name, data) in &snap.entries {
            store.put(name.clone(), data.clone());
        }
        store
    }

    /// Roll the store back to `snap`: arrays present in the snapshot are
    /// overwritten **in place** (existing handles keep observing the cell),
    /// arrays created since are removed.
    pub fn restore(&self, snap: &Snapshot) {
        let mut map = write(&self.map);
        map.retain(|name, _| snap.entries.iter().any(|(n, _)| n == name));
        for (name, data) in &snap.entries {
            match map.get(name) {
                Some(cell) => *write(cell) = data.clone(),
                None => {
                    map.insert(name.clone(), Arc::new(RwLock::new(data.clone())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let s = DataStore::new();
        s.put("a", vec![1.0, 2.0]);
        assert_eq!(s.get("a"), Some(vec![1.0, 2.0]));
        assert_eq!(s.get("b"), None);
    }

    #[test]
    fn put_replaces_in_place() {
        let s = DataStore::new();
        s.put("a", vec![1.0]);
        let h = s.handle("a").unwrap();
        s.put("a", vec![2.0, 3.0]);
        // Old handles observe the replacement (same cell).
        assert_eq!(*h.read().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn names_sorted_and_remove() {
        let s = DataStore::new();
        s.put("b", vec![]);
        s.put("a", vec![1.0]);
        assert_eq!(s.names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(s.remove("a"), Some(vec![1.0]));
        assert_eq!(s.get("a"), None);
    }

    #[test]
    fn snapshot_restore_rolls_back() {
        let s = DataStore::new();
        s.put("a", vec![1.0]);
        s.put("b", vec![2.0]);
        let snap = s.snapshot();

        // Mutate existing, add new, remove one.
        s.put("a", vec![9.0, 9.0]);
        s.put("c", vec![3.0]);
        s.remove("b");

        s.restore(&snap);
        assert_eq!(s.get("a"), Some(vec![1.0]));
        assert_eq!(s.get("b"), Some(vec![2.0]));
        assert_eq!(s.get("c"), None);
        assert_eq!(s.snapshot(), snap);
    }

    #[test]
    fn restore_preserves_cell_identity() {
        let s = DataStore::new();
        s.put("a", vec![1.0]);
        let h = s.handle("a").unwrap();
        let snap = s.snapshot();
        s.put("a", vec![5.0]);
        s.restore(&snap);
        // The pre-restore handle sees the rolled-back contents.
        assert_eq!(*h.read().unwrap(), vec![1.0]);
        assert!(Arc::ptr_eq(&h, &s.handle("a").unwrap()));
    }

    #[test]
    fn bytes_written_counts_puts_monotonically() {
        let s = DataStore::new();
        assert_eq!(s.bytes_written(), 0);
        s.put("a", vec![1.0, 2.0]); // 16 bytes
        s.put("a", vec![3.0]); // 8 bytes
        s.remove("a");
        assert_eq!(s.bytes_written(), 24); // monotonic: remove doesn't subtract
    }

    #[test]
    fn snapshot_get_and_from_snapshot() {
        let s = DataStore::new();
        s.put("b", vec![2.0]);
        s.put("a", vec![1.0]);
        let snap = s.snapshot();
        assert_eq!(snap.get("a"), Some([1.0].as_slice()));
        assert_eq!(snap.get("b"), Some([2.0].as_slice()));
        assert_eq!(snap.get("c"), None);
        let overlay = DataStore::from_snapshot(&snap);
        assert_eq!(overlay.snapshot(), snap);
        // The overlay is independent of the original.
        overlay.put("a", vec![9.0]);
        assert_eq!(s.get("a"), Some(vec![1.0]));
    }

    #[test]
    fn snapshots_compare_by_content() {
        let s1 = DataStore::new();
        let s2 = DataStore::new();
        s1.put("x", vec![1.0]);
        s2.put("x", vec![1.0]);
        assert_eq!(s1.snapshot(), s2.snapshot());
        s2.put("x", vec![2.0]);
        assert_ne!(s1.snapshot(), s2.snapshot());
    }
}
