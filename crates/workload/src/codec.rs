//! Snapshot field-list helpers for simulation value types. The
//! [`snapshot`] crate knows bytes and `simcore` knows no snapshots; this is
//! the lowest crate that sees both.

use simcore::rng::RngStream;
use simcore::time::SimTime;
use snapshot::{Codec, SnapshotError};

/// [`Codec`] primitives for [`SimTime`] and [`RngStream`], available on
/// every codec.
pub trait SimCodec: Codec {
    /// An instant, stored as its raw `f64`; decoding rejects negative and
    /// non-finite values (the [`SimTime`] invariant).
    fn time(&mut self, t: &mut SimTime) -> Result<(), SnapshotError> {
        let mut v = t.as_f64();
        self.nonneg(&mut v)?;
        *t = SimTime::new(v);
        Ok(())
    }

    /// An RNG stream: its whitened seed and the four raw state words, so
    /// a restored stream resumes the draw sequence exactly.
    fn rng(&mut self, rng: &mut RngStream) -> Result<(), SnapshotError> {
        let (mut seed, mut state) = (rng.seed(), rng.state());
        self.u64(&mut seed)?;
        state.iter_mut().try_for_each(|w| self.u64(w))?;
        if Self::DECODE {
            *rng = RngStream::from_parts(seed, state);
        }
        Ok(())
    }
}

impl<C: Codec> SimCodec for C {}
