//! Offline stand-in for `rayon`.
//!
//! The build environment cannot reach crates.io, so the `par_iter` /
//! `into_par_iter` / `par_chunks*` entry points the workspace uses are
//! provided here as zero-cost adapters over the corresponding *sequential*
//! std iterators. Every call site keeps its exact semantics and determinism;
//! only the data parallelism is gone. The serving subsystem gets its real
//! concurrency from its own thread pool, not from these adapters, so the
//! hot paths that matter for throughput are still multi-threaded.

pub mod prelude {
    //! Drop-in replacement for `rayon::prelude::*`.

    /// `into_par_iter()` for owned collections and ranges: sequential
    /// `into_iter()` under the hood.
    pub trait IntoParallelIterator: IntoIterator + Sized {
        /// Sequential stand-in for rayon's `into_par_iter`.
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }

    impl<I: IntoIterator + Sized> IntoParallelIterator for I {}

    /// `par_iter()` over `&self`: sequential `iter()`.
    pub trait IntoParallelRefIterator<'data> {
        /// The iterator type produced.
        type Iter: Iterator;
        /// Sequential stand-in for rayon's `par_iter`.
        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
    where
        &'data C: IntoIterator,
    {
        type Iter = <&'data C as IntoIterator>::IntoIter;
        fn par_iter(&'data self) -> Self::Iter {
            self.into_iter()
        }
    }

    /// `par_iter_mut()` over `&mut self`: sequential `iter_mut()`.
    pub trait IntoParallelRefMutIterator<'data> {
        /// The iterator type produced.
        type Iter: Iterator;
        /// Sequential stand-in for rayon's `par_iter_mut`.
        fn par_iter_mut(&'data mut self) -> Self::Iter;
    }

    impl<'data, C: 'data + ?Sized> IntoParallelRefMutIterator<'data> for C
    where
        &'data mut C: IntoIterator,
    {
        type Iter = <&'data mut C as IntoIterator>::IntoIter;
        fn par_iter_mut(&'data mut self) -> Self::Iter {
            self.into_iter()
        }
    }

    /// `par_chunks()` on slices: sequential `chunks()`.
    pub trait ParallelSlice<T> {
        /// Sequential stand-in for rayon's `par_chunks`.
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T> {
            self.chunks(chunk_size)
        }
    }

    /// `par_chunks_mut()` on slices: sequential `chunks_mut()`.
    pub trait ParallelSliceMut<T> {
        /// Sequential stand-in for rayon's `par_chunks_mut`.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(chunk_size)
        }
    }
}

/// Sequential stand-in for `rayon::join`: runs both closures in order.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    (a(), b())
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn adapters_mirror_sequential_behaviour() {
        let v = vec![1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);

        let squares: Vec<usize> = (0..5usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);

        let mut buf = [0u32; 6];
        buf.par_chunks_mut(2).enumerate().for_each(|(i, chunk)| {
            for c in chunk {
                *c = i as u32;
            }
        });
        assert_eq!(buf, [0, 0, 1, 1, 2, 2]);

        let mut v = vec![1, 2, 3];
        v.par_iter_mut().for_each(|x| *x += 10);
        assert_eq!(v, vec![11, 12, 13]);

        let chunk_sums: Vec<i32> = [1, 2, 3, 4, 5]
            .par_chunks(2)
            .map(|c| c.iter().sum())
            .collect();
        assert_eq!(chunk_sums, vec![3, 7, 5]);

        assert_eq!(super::join(|| 1, || 2), (1, 2));
    }
}
