//! Snapshot serving: load a persisted P3GM model once, serve synthesis
//! forever.
//!
//! The paper's deployment story (§IV-E) is that the differentially private
//! training cost is paid **once** and the released model is then sampled
//! from arbitrarily often as post-processing — at zero additional privacy
//! cost. [`SynthesisSnapshot`] is the unit that makes this operational: it
//! bundles the trained [`PhasedGenerativeModel`], the optional
//! [`LabelledSynthesizer`] needed to map generated rows back to
//! original-unit features and labels, and the [`PrivacySpec`] stamp
//! certified at save time, into one versioned byte buffer (see
//! `p3gm-store` for the frame layout). The snapshot file is the unit a
//! serving fleet shards, caches and replicates.
//!
//! Serving is **seedable, deterministic, and streamable**. Sampling draws
//! from one canonical stream: row `r` of stream `seed` belongs to *seed
//! block* `b = r / `[`SEED_BLOCK_ROWS`], and the rows of block `b` are
//! drawn sequentially from a `StdRng` seeded with a SplitMix64-style
//! derivation of `(seed, b)`. The stream is therefore a pure function of
//! `(seed, row index)` — independent of the request size `n`, of how the
//! rows are windowed for delivery, and of the worker-thread count:
//!
//! * [`SynthesisSnapshot::sample_rows`] is the one sampling primitive: it
//!   draws any row window `[start, start + rows)` of the stream, so a
//!   server streams a response window by window with peak memory bounded
//!   by the window, not `n`.
//! * [`SynthesisSnapshot::sample`] is the window starting at row 0;
//!   `save → load → sample(seed, n)` is bit-identical to sampling the
//!   in-memory snapshot with the same seed.
//!
//! Because the stream does not depend on `n`, `sample(seed, n1)` is a
//! row-prefix of `sample(seed, n2)` whenever `n1 <= n2` — a paginated
//! client re-requesting a longer prefix sees the rows it already holds.

use crate::config::PgmConfig;
use crate::pgm::{ModelHead, PhasedGenerativeModel};
use crate::synthesis::{synthesize_labelled, LabelledSynthesizer};
use crate::{CoreError, Result};
use p3gm_linalg::Matrix;
use p3gm_privacy::rdp::PrivacySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Rows per RNG seed block of the canonical sample stream.
///
/// Row `r` is drawn from the block-`r / SEED_BLOCK_ROWS` generator, so any
/// chunking of the stream whose boundaries are multiples of this constant
/// regenerates nothing; other chunk sizes merely re-derive (cheap) prior
/// draws for at most `SEED_BLOCK_ROWS - 1` leading rows per chunk. The
/// value is a constant of the format: changing it changes every stream.
pub const SEED_BLOCK_ROWS: usize = 64;

/// A loaded model snapshot serving concurrent, seedable synthesis
/// requests.
#[derive(Debug, Clone)]
pub struct SynthesisSnapshot {
    model: PhasedGenerativeModel,
    synthesizer: Option<LabelledSynthesizer>,
    stamp: Option<PrivacySpec>,
}

impl SynthesisSnapshot {
    /// Captures a trained model into a snapshot, stamping it with the
    /// (ε, δ)-DP guarantee of its training run (absent for the non-private
    /// PGM).
    pub fn capture(model: PhasedGenerativeModel) -> Self {
        let stamp = model.training_privacy_spec();
        SynthesisSnapshot {
            model,
            synthesizer: None,
            stamp,
        }
    }

    /// Attaches the labelled-synthesis transform so the snapshot can serve
    /// original-unit `(features, labels)` rows, not just model-space rows.
    pub fn with_synthesizer(mut self, synthesizer: LabelledSynthesizer) -> Self {
        self.synthesizer = Some(synthesizer);
        self
    }

    /// The wrapped model.
    pub fn model(&self) -> &PhasedGenerativeModel {
        &self.model
    }

    /// The attached labelled-synthesis transform, if any.
    pub fn synthesizer(&self) -> Option<&LabelledSynthesizer> {
        self.synthesizer.as_ref()
    }

    /// The (ε, δ)-DP guarantee stamped at capture time, if the model was
    /// trained privately.
    pub fn privacy_stamp(&self) -> Option<&PrivacySpec> {
        self.stamp.as_ref()
    }

    /// Serializes the snapshot (model, optional synthesizer, optional
    /// privacy stamp) into one framed `p3gm-store` buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::SYNTHESIS_SNAPSHOT);
        enc.nested(&self.model.to_bytes());
        match &self.synthesizer {
            Some(s) => enc.bool(true).nested(&s.to_bytes()),
            None => enc.bool(false),
        };
        match &self.stamp {
            Some(spec) => enc.bool(true).nested(&spec.to_bytes()),
            None => enc.bool(false),
        };
        enc.finish()
    }

    /// Deserializes a snapshot from a buffer produced by
    /// [`SynthesisSnapshot::to_bytes`]. Malformed buffers (truncated,
    /// bit-flipped, wrong version, inconsistent geometry) return a typed
    /// [`p3gm_store::StoreError`]; this never panics.
    ///
    /// The privacy stamp is the user-facing DP certificate, so the stored
    /// section is not trusted: the guarantee is fully derivable from the
    /// persisted configuration and training-set size, and the loaded
    /// snapshot's [`SynthesisSnapshot::privacy_stamp`] is always the value
    /// **recomputed by this library's accountant**, superseding whatever
    /// the stamp section contains. Editing the stamp bytes therefore
    /// cannot misreport the guarantee, and snapshots written before an
    /// accountant soundness fix (such as this release's floor→ceil moment
    /// rounding) keep loading — with the corrected, current value.
    pub fn from_bytes(bytes: &[u8]) -> p3gm_store::Result<Self> {
        let mut dec = p3gm_store::Decoder::new(bytes, p3gm_store::tags::SYNTHESIS_SNAPSHOT)?;
        let model = PhasedGenerativeModel::from_bytes(dec.nested()?)?;
        let synthesizer = if dec.bool()? {
            Some(LabelledSynthesizer::from_bytes(dec.nested()?)?)
        } else {
            None
        };
        // The stamp section is decoded (and so frame-validated) for format
        // stability, but its value is superseded below.
        let stored_stamp = if dec.bool()? {
            Some(PrivacySpec::from_bytes(dec.nested()?)?)
        } else {
            None
        };
        dec.finish()?;
        if let Some(s) = &synthesizer {
            if s.prepared_width() != model.data_dim() {
                return Err(p3gm_store::StoreError::Invalid {
                    msg: format!(
                        "synthesizer prepares {}-wide rows, model generates {}",
                        s.prepared_width(),
                        model.data_dim()
                    ),
                });
            }
        }
        let _ = stored_stamp;
        let stamp = model.training_privacy_spec();
        Ok(SynthesisSnapshot {
            model,
            synthesizer,
            stamp,
        })
    }

    /// Draws rows `[start, start + rows)` of the canonical stream
    /// identified by `seed`, without materializing anything before
    /// `start`.
    ///
    /// This is the random-access primitive every sampling path consumes:
    /// the result depends only on `(seed, start, rows)` — requesting the
    /// same row range in any larger or smaller batch yields the same
    /// bytes. Zero rows yield a `0 × data_dim` matrix.
    ///
    /// The window's prior draws land in place in one `rows × latent_dim`
    /// matrix, which one [`PhasedGenerativeModel::decode`] turns into the
    /// window's rows: a batched forward pass and an in-place sigmoid
    /// sweep, on the calling thread. A `start` that is not a multiple of
    /// [`SEED_BLOCK_ROWS`] re-derives the prior draws of the partial
    /// leading block into the window's first row, which its own draw then
    /// overwrites; decoding, the expensive step, is never repeated.
    pub fn sample_rows(&self, seed: u64, start: usize, rows: usize) -> Matrix {
        let prior = self.model.prior();
        let mut latents = Matrix::zeros(rows, prior.dim());
        let end = start + rows;
        let mut row = start;
        while row < end {
            let block = row / SEED_BLOCK_ROWS;
            let block_start = block * SEED_BLOCK_ROWS;
            let block_end = (block_start + SEED_BLOCK_ROWS).min(end);
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, block as u64));
            // Rows before `row` are burn-in: their draws land in the row
            // that the draw for `row` then overwrites.
            for r in block_start..block_end {
                prior.sample(&mut rng, latents.row_mut(r.max(row) - start));
            }
            row = block_end;
        }
        self.model.decode(&latents)
    }

    /// Draws `n` model-space rows from the stream identified by `seed`:
    /// the window `sample_rows(seed, 0, n)`, so `save → load → sample(seed,
    /// n)` is bit-identical to sampling the in-memory snapshot with the
    /// same seed (the round-trip guarantee the persistence layer is
    /// tested against).
    pub fn sample(&self, seed: u64, n: usize) -> Matrix {
        self.sample_rows(seed, 0, n)
    }

    /// Serves one labelled-synthesis request: `target_counts[c]` rows of
    /// every class `c`, in original feature units, drawn from the stream
    /// identified by `seed`.
    ///
    /// Requires a synthesizer (attach one with
    /// [`SynthesisSnapshot::with_synthesizer`]).
    pub fn synthesize_labelled(
        &self,
        seed: u64,
        target_counts: &[usize],
    ) -> Result<(Matrix, Vec<usize>)> {
        let synthesizer = self
            .synthesizer
            .as_ref()
            .ok_or_else(|| CoreError::InvalidConfig {
                msg: "snapshot has no labelled synthesizer attached".to_string(),
            })?;
        let mut rng = StdRng::seed_from_u64(seed);
        synthesize_labelled(&self.model, synthesizer, &mut rng, target_counts)
    }
}

/// The metadata of a persisted snapshot, decoded from the **leading
/// frames** of the buffer without touching any weight payload.
///
/// A `SynthesisSnapshot` buffer opens with the model's configuration and
/// dataset geometry (see `PhasedGenerativeModel::to_bytes` — the weight
/// buffers come after), and the (ε, δ) stamp is recomputed from the
/// configuration anyway ([`PgmConfig::privacy_spec`]), so everything a
/// registry listing or a `GET /models` response needs is available from
/// a few hundred leading bytes and the synthesizer section.
///
/// [`SnapshotHeader::peek`] (a buffer) and [`SnapshotHeader::peek_file`]
/// (a file) share one parse. It reads a prefix of at most 4,096 bytes,
/// decodes the model's leading fields with the reader the full decode
/// uses, and checks the source's length against what the outer frame
/// claims, so a truncated or concatenated upload is caught at scan time.
/// When the prefix does not hold the whole snapshot, the synthesizer
/// section (which follows the weights) comes from one more read of at
/// most 256 bytes, at the offset the decoder reports. That is O(1) I/O
/// per snapshot regardless of weight size, which is what lets a registry
/// scan thousands of tenant snapshots without decoding a single weight
/// payload.
///
/// The peek deliberately skips the trailing CRC (reading it would
/// mean reading the whole file): a header can therefore look healthy
/// while the weight payload is corrupt. The full, checksummed
/// [`SynthesisSnapshot::from_bytes`] decode remains the integrity
/// authority and runs on first model use; the peeked fields themselves
/// pass the same semantic checks (config ranges, finite floats,
/// geometry) as in the full decode, by the same code.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotHeader {
    /// The persisted training configuration (hyper-parameters and DP
    /// knobs; the stamp below is recomputed from it).
    pub config: PgmConfig,
    /// Dimensionality of the generated rows.
    pub data_dim: usize,
    /// Decoding-Phase epochs the model had trained when saved.
    pub trained_epochs: usize,
    /// Number of training rows (the accountant's `n`).
    pub n_train: usize,
    /// Number of classes of the attached labelled synthesizer, `None`
    /// when the snapshot has no synthesizer.
    pub n_classes: Option<usize>,
    /// The (ε, δ)-DP stamp **recomputed** from the persisted
    /// configuration — the same accountant run the full decode reports,
    /// never a stored value.
    pub stamp: Option<PrivacySpec>,
    /// Total byte length of the framed snapshot buffer this header was
    /// peeked from (what the outer frame claims; the peek verifies the
    /// source's length matches it).
    pub framed_len: u64,
}

impl SnapshotHeader {
    /// Decodes the header from a snapshot buffer, reading it as
    /// [`Self::peek_file`] reads a file. Never panics on untrusted
    /// bytes; every failure is a typed [`p3gm_store::StoreError`].
    pub fn peek(bytes: &[u8]) -> p3gm_store::Result<SnapshotHeader> {
        Self::peek_from(&mut std::io::Cursor::new(bytes))
    }

    /// Decodes the header from a snapshot file without reading the
    /// weight payload. I/O failures are reported as
    /// [`p3gm_store::StoreError::Invalid`].
    pub fn peek_file(path: &Path) -> p3gm_store::Result<SnapshotHeader> {
        Self::peek_from(&mut std::fs::File::open(path).map_err(io_err)?)
    }

    /// The one parse behind both peeks (see the type docs).
    fn peek_from<R: Read + Seek>(source: &mut R) -> p3gm_store::Result<SnapshotHeader> {
        use p3gm_store::{tags, Decoder};
        // Enough for the outer header, the model frame header, the
        // configuration and the geometry fields, with generous slack for
        // format growth; tiny snapshots fit entirely.
        const PREFIX_READ: u64 = 4096;
        // Flag byte + nested length + the one-hot encoder's framed
        // buffer: the synthesizer section's leading fields.
        const TAIL_READ: u64 = 256;
        let len = source.seek(SeekFrom::End(0)).map_err(io_err)?;
        let prefix = read_at(source, 0, PREFIX_READ)?;
        let mut dec = Decoder::over_prefix(&prefix, tags::SYNTHESIS_SNAPSHOT)?;
        let (model, synth_at) = dec.nested_prefix()?;
        let head = ModelHead::decode(&mut Decoder::over_prefix(model, tags::PGM_MODEL)?)?;
        let framed_len = p3gm_store::peek_frame(&prefix)?
            .check_len(usize::try_from(len).unwrap_or(usize::MAX))?;
        // The synthesizer section follows the weights: read it where the
        // prefix decoder stands when the prefix holds the whole snapshot,
        // else from one bounded read at the offset the decoder reported.
        // An offset past the end (a corrupt nested length) reads nothing
        // and fails `Truncated`, as the same bytes do in memory, instead
        // of a seek past the file system's size limit.
        let tail = (prefix.len() as u64 != len)
            .then(|| read_at(source, (synth_at as u64).min(len), TAIL_READ))
            .transpose()?;
        let mut dec = tail.as_deref().map_or(dec, Decoder::fields);
        let n_classes = if dec.bool()? {
            Some(LabelledSynthesizer::peek_n_classes(dec.nested_prefix()?.0)?)
        } else {
            None
        };
        Ok(SnapshotHeader {
            stamp: head.config.privacy_spec(head.n_train),
            config: head.config,
            data_dim: head.data_dim,
            trained_epochs: head.trained_epochs,
            n_train: head.n_train,
            n_classes,
            framed_len: framed_len as u64,
        })
    }

    /// Approximate resident (decoded, in-RAM) footprint of this model in
    /// bytes, estimated from the header geometry alone: the projection
    /// matrix, the `k`-component mixture prior (means, covariances and
    /// cached factorizations), and the two `data → hidden → latent` /
    /// `latent → hidden → data` MLPs, all as `f64`s, plus allocator
    /// slack. A deliberate *estimate* — the registry uses it to meter an
    /// LRU budget, where being within a small constant factor is enough.
    pub fn approx_resident_bytes(&self) -> u64 {
        let d = self.data_dim as u64;
        let l = self.config.latent_dim as u64;
        let h = self.config.hidden_dim as u64;
        let k = self.config.mog_components as u64;
        let projection = d.saturating_mul(l).saturating_add(d).saturating_add(l);
        let prior = k.saturating_mul(
            l.saturating_mul(l)
                .saturating_mul(2)
                .saturating_add(l)
                .saturating_add(4),
        );
        let mlp_in = d
            .saturating_mul(h)
            .saturating_add(h.saturating_mul(l))
            .saturating_add(h)
            .saturating_add(l);
        let mlp_out = l
            .saturating_mul(h)
            .saturating_add(h.saturating_mul(d))
            .saturating_add(h)
            .saturating_add(d);
        let params = projection
            .saturating_add(prior)
            .saturating_add(mlp_in)
            .saturating_add(mlp_out);
        // 8 bytes per f64, ×1.25 for Vec/cache overhead, + a fixed floor.
        params.saturating_mul(10).saturating_add(4096)
    }
}

/// A failed read, as a peek reports it.
fn io_err(e: std::io::Error) -> p3gm_store::StoreError {
    p3gm_store::StoreError::Invalid {
        msg: format!("read failed: {e}"),
    }
}

/// Reads at most `max` bytes of `source`, starting at `offset`.
fn read_at<R: Read + Seek>(source: &mut R, offset: u64, max: u64) -> p3gm_store::Result<Vec<u8>> {
    source.seek(SeekFrom::Start(offset)).map_err(io_err)?;
    let mut buf = Vec::with_capacity(max as usize);
    source
        .by_ref()
        .take(max)
        .read_to_end(&mut buf)
        .map_err(io_err)?;
    Ok(buf)
}

/// SplitMix64-style mixing of a base seed and a seed-block index into the
/// per-block RNG seed of the canonical sample stream.
fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PgmConfig;
    use crate::{GenerativeModel, VarianceMode};
    use p3gm_privacy::sampling;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(202)
    }

    fn toy_labelled(rng: &mut StdRng, n: usize) -> (Matrix, Vec<usize>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let hot = i % 2 == 0;
                (0..6)
                    .map(|j| {
                        let base = if (j < 3) == hot { 0.85 } else { 0.15 };
                        (base + sampling::normal(rng, 0.0, 0.05)).clamp(0.0, 1.0)
                    })
                    .collect()
            })
            .collect();
        let labels = (0..n).map(|i| i % 2).collect();
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn tiny_config(d: usize) -> PgmConfig {
        PgmConfig {
            latent_dim: 3.min(d),
            hidden_dim: 12,
            mog_components: 2,
            epochs: 4,
            batch_size: 16,
            learning_rate: 5e-3,
            clip_norm: 1.0,
            private: true,
            eps_p: 0.5,
            sigma_e: 50.0,
            em_iterations: 3,
            sigma_s: 1.0,
            delta: 1e-5,
            variance_mode: VarianceMode::Learned,
        }
    }

    fn trained_snapshot() -> (SynthesisSnapshot, PhasedGenerativeModel) {
        let mut r = rng();
        let (x, y) = toy_labelled(&mut r, 80);
        let (synth, prepared) = LabelledSynthesizer::prepare(&x, &y, 2).unwrap();
        let (model, _) =
            PhasedGenerativeModel::fit(&mut r, &prepared, tiny_config(prepared.cols())).unwrap();
        let snapshot = SynthesisSnapshot::capture(model.clone()).with_synthesizer(synth);
        (snapshot, model)
    }

    #[test]
    fn save_load_sample_is_bit_identical() {
        let (snapshot, model) = trained_snapshot();
        let bytes = snapshot.to_bytes();
        let loaded = SynthesisSnapshot::from_bytes(&bytes).unwrap();
        // The round-trip guarantee: the reloaded snapshot's seeded sample
        // equals the never-persisted snapshot's stream with the same seed.
        let direct = snapshot.sample(42, 30);
        let served = loaded.sample(42, 30);
        assert_eq!(direct.as_slice(), served.as_slice());
        // The stamp survives and matches the model's own accounting.
        assert_eq!(
            loaded.privacy_stamp().copied(),
            model.training_privacy_spec()
        );
        assert!(loaded.synthesizer().is_some());
    }

    #[test]
    fn chunked_sampling_is_invariant_to_chunk_size() {
        let (snapshot, _) = trained_snapshot();
        let d = snapshot.model().data_dim();
        // Spans two 512-row windows (the server's stream chunk) with a
        // partial tail.
        let n = 1100;
        let reference = snapshot.sample(33, n);
        assert_eq!(reference.shape(), (n, d));
        for window in [1, 3, 17, SEED_BLOCK_ROWS, 100, 512, n, n + 50] {
            let mut rebuilt: Vec<f64> = Vec::with_capacity(n * d);
            for start in (0..n).step_by(window) {
                let rows = snapshot.sample_rows(33, start, window.min(n - start));
                assert_eq!(rows.cols(), d);
                rebuilt.extend_from_slice(rows.as_slice());
            }
            assert_eq!(rebuilt.as_slice(), reference.as_slice(), "window {window}");
        }
        // Windows at unaligned starts agree with the stream too.
        for (start, rows) in [(70, 25), (63, 2), (100, SEED_BLOCK_ROWS), (513, 512)] {
            let window = snapshot.sample_rows(33, start, rows);
            assert_eq!(
                window.as_slice(),
                &reference.as_slice()[start * d..(start + rows) * d],
                "rows {start}..{}",
                start + rows
            );
        }
    }

    /// The sigmoid as the two-branch formula, for the per-row reference.
    fn two_branch_sigmoid(x: f64) -> f64 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    /// One latent row decoded on its own: `Mlp::forward`, then the
    /// two-branch sigmoid of each logit.
    fn decode_row(model: &PhasedGenerativeModel, z: &[f64]) -> Vec<f64> {
        let logits = model.decoder().forward(z);
        logits.into_iter().map(two_branch_sigmoid).collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn batched_windows_match_a_per_row_draw_and_decode() {
        let (snapshot, model) = trained_snapshot();
        let prior = model.prior();
        let d = model.data_dim();
        let seed = 21;
        // The stream's rows 0..1025 drawn and decoded one at a time, each
        // block's generator seeded as the stream defines it.
        let mut z = vec![0.0; prior.dim()];
        let mut stream = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        for r in 0..1025 {
            if r % SEED_BLOCK_ROWS == 0 {
                rng = StdRng::seed_from_u64(derive_seed(seed, (r / SEED_BLOCK_ROWS) as u64));
            }
            prior.sample(&mut rng, &mut z);
            stream.extend(decode_row(&model, &z));
        }
        // `GenerativeModel::sample` draws from the caller's generator.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut drawn = Vec::new();
        for _ in 0..70 {
            prior.sample(&mut rng, &mut z);
            drawn.extend(decode_row(&model, &z));
        }
        let n = 130;
        for threads in [1, 2, 4] {
            p3gm_parallel::with_threads(threads, || {
                for (start, rows) in [(0, n), (3, 70), (63, 2), (513, 512), (0, 0), (100, 0)] {
                    let window = snapshot.sample_rows(seed, start, rows);
                    assert_eq!(window.shape(), (rows, d));
                    assert_eq!(
                        bits(window.as_slice()),
                        bits(&stream[start * d..(start + rows) * d]),
                        "rows {start}..{} at {threads} threads",
                        start + rows
                    );
                }
                let sampled = model.sample(&mut StdRng::seed_from_u64(seed), 70);
                assert_eq!(bits(sampled.as_slice()), bits(&drawn), "{threads} threads");
            });
        }
    }

    #[test]
    fn sampling_is_prefix_stable_in_n() {
        // The stream does not depend on the request size: a shorter
        // request is a row-prefix of a longer one.
        let (snapshot, _) = trained_snapshot();
        let d = snapshot.model().data_dim();
        let long = snapshot.sample(7, 200);
        for n in [1, 63, 64, 65, 130] {
            let short = snapshot.sample(7, n);
            assert_eq!(short.as_slice(), &long.as_slice()[..n * d], "n {n}");
        }
    }

    #[test]
    fn sampling_is_thread_count_invariant() {
        let (snapshot, _) = trained_snapshot();
        let reference = p3gm_parallel::with_threads(1, || snapshot.sample(9, 70));
        for threads in [2, 4] {
            let got = p3gm_parallel::with_threads(threads, || snapshot.sample(9, 70));
            assert_eq!(got.as_slice(), reference.as_slice(), "{threads} threads");
        }
        assert_eq!(reference.shape(), (70, snapshot.model().data_dim()));
        // Different seeds give different streams.
        let other = snapshot.sample(10, 70);
        assert_ne!(other.as_slice(), reference.as_slice());
    }

    #[test]
    fn zero_row_requests_yield_empty_matrices_with_model_geometry() {
        let (snapshot, _) = trained_snapshot();
        let d = snapshot.model().data_dim();
        assert!(d > 0);
        // Zero rows, at the stream start or at an offset, are well-formed
        // empty output carrying the model's output geometry.
        assert_eq!(snapshot.sample(5, 0).shape(), (0, d));
        assert_eq!(snapshot.sample_rows(5, 100, 0).shape(), (0, d));
    }

    #[test]
    fn labelled_serving_round_trips_through_the_synthesizer() {
        let (snapshot, _) = trained_snapshot();
        let (features, labels) = snapshot.synthesize_labelled(5, &[6, 4]).unwrap();
        assert_eq!(features.rows(), 10);
        assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 6);
        assert_eq!(labels.iter().filter(|&&l| l == 1).count(), 4);
        // Deterministic per seed.
        let (again, labels_again) = snapshot.synthesize_labelled(5, &[6, 4]).unwrap();
        assert_eq!(features.as_slice(), again.as_slice());
        assert_eq!(labels, labels_again);
        // Without a synthesizer the request is a typed error.
        let bare = SynthesisSnapshot::capture(snapshot.model().clone());
        assert!(bare.synthesize_labelled(5, &[6, 4]).is_err());
    }

    #[test]
    fn loaded_stamp_is_recomputed_superseding_the_stored_section() {
        // The stamp is the user-facing DP certificate and is fully
        // derivable from the persisted configuration, so the loader always
        // recomputes it: a re-framed buffer claiming a smaller ε (or no
        // stamp at all) loads, but reports the honest guarantee.
        let (snapshot, model) = trained_snapshot();
        let honest = model.training_privacy_spec().expect("private model");
        let forged = SynthesisSnapshot {
            model: model.clone(),
            synthesizer: None,
            stamp: Some(p3gm_privacy::rdp::PrivacySpec {
                epsilon: honest.epsilon / 10.0,
                ..honest
            }),
        };
        let loaded = SynthesisSnapshot::from_bytes(&forged.to_bytes()).unwrap();
        assert_eq!(loaded.privacy_stamp(), Some(&honest));
        let stripped = SynthesisSnapshot {
            model,
            synthesizer: None,
            stamp: None,
        };
        let loaded = SynthesisSnapshot::from_bytes(&stripped.to_bytes()).unwrap();
        assert_eq!(loaded.privacy_stamp(), Some(&honest));
        // The honest snapshot round-trips to the same certificate.
        let loaded = SynthesisSnapshot::from_bytes(&snapshot.to_bytes()).unwrap();
        assert_eq!(loaded.privacy_stamp(), Some(&honest));
    }

    #[test]
    fn header_peek_agrees_with_full_decode() {
        let (snapshot, model) = trained_snapshot();
        let bytes = snapshot.to_bytes();
        let header = SnapshotHeader::peek(&bytes).unwrap();
        let full = SynthesisSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(header.config, *full.model().config());
        assert_eq!(header.data_dim, full.model().data_dim());
        assert_eq!(header.trained_epochs, full.model().trained_epochs());
        assert_eq!(header.n_classes, full.synthesizer().map(|s| s.n_classes()));
        assert_eq!(header.stamp.as_ref(), full.privacy_stamp());
        assert_eq!(header.framed_len, bytes.len() as u64);
        assert!(header.approx_resident_bytes() > 4096);

        // A bare snapshot (no synthesizer) peeks n_classes = None.
        let bare = SynthesisSnapshot::capture(model);
        let bare_header = SnapshotHeader::peek(&bare.to_bytes()).unwrap();
        assert_eq!(bare_header.n_classes, None);
        assert_eq!(bare_header.config, header.config);

        // Every prefix either peeks identically or fails typed — never
        // a panic, never a divergent value.
        for cut in (0..bytes.len()).step_by(13) {
            if let Ok(peeked) = SnapshotHeader::peek(&bytes[..cut]) {
                assert_eq!(peeked, header, "prefix {cut}");
            }
        }
    }

    #[test]
    fn header_peek_file_matches_in_memory_peek_and_checks_length() {
        let (snapshot, _) = trained_snapshot();
        let bytes = snapshot.to_bytes();
        let dir = std::env::temp_dir().join(format!("p3gm_peek_file_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("m.snapshot");
        std::fs::write(&path, &bytes).unwrap();
        let from_file = SnapshotHeader::peek_file(&path).unwrap();
        assert_eq!(from_file, SnapshotHeader::peek(&bytes).unwrap());

        // A truncated file is caught by the length check alone.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            SnapshotHeader::peek_file(&path),
            Err(p3gm_store::StoreError::Truncated { .. })
        ));
        // Appended junk likewise.
        let mut padded = bytes.clone();
        padded.extend_from_slice(b"xx");
        std::fs::write(&path, &padded).unwrap();
        assert!(matches!(
            SnapshotHeader::peek_file(&path),
            Err(p3gm_store::StoreError::TrailingBytes { count: 2 })
        ));
        // A missing file is a typed error, not a panic.
        assert!(SnapshotHeader::peek_file(&dir.join("absent.snapshot")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A reader that counts the bytes it hands out.
    struct Counting<R> {
        inner: R,
        handed: u64,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.handed += n as u64;
            Ok(n)
        }
    }

    impl<R: Seek> Seek for Counting<R> {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    /// An Encoding-Phase-only labelled snapshot with an 8,192-wide
    /// hidden layer: over a megabyte of weights lies between the model's
    /// head and the synthesizer section.
    fn wide_snapshot_bytes() -> Vec<u8> {
        let mut r = rng();
        let (x, y) = toy_labelled(&mut r, 80);
        let (synth, prepared) = LabelledSynthesizer::prepare(&x, &y, 2).unwrap();
        let config = PgmConfig {
            hidden_dim: 8192,
            ..tiny_config(prepared.cols())
        };
        let model = PhasedGenerativeModel::encode_phase(&mut r, &prepared, config).unwrap();
        let bytes = SynthesisSnapshot::capture(model)
            .with_synthesizer(synth)
            .to_bytes();
        assert!(bytes.len() > 1 << 20, "{} bytes", bytes.len());
        bytes
    }

    #[test]
    fn header_peek_reads_a_bounded_prefix_and_tail_past_megabytes_of_weights() {
        // The peek is handed the 4,096-byte prefix and one read of at
        // most 256 bytes, never the weights.
        let bytes = wide_snapshot_bytes();

        let mut source = Counting {
            inner: std::io::Cursor::new(&bytes),
            handed: 0,
        };
        let header = SnapshotHeader::peek_from(&mut source).unwrap();
        assert!(
            (4096..=4096 + 256).contains(&source.handed),
            "the peek was handed {} bytes",
            source.handed
        );
        let full = SynthesisSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(header.config, *full.model().config());
        assert_eq!(header.data_dim, full.model().data_dim());
        assert_eq!(header.trained_epochs, 0);
        assert_eq!(header.trained_epochs, full.model().trained_epochs());
        assert_eq!(header.n_classes, Some(2));
        assert_eq!(header.stamp.as_ref(), full.privacy_stamp());
        assert_eq!(header.framed_len, bytes.len() as u64);
        assert_eq!(SnapshotHeader::peek(&bytes).unwrap(), header);
    }

    #[test]
    fn a_nested_length_past_the_end_is_truncated_in_a_file_as_in_memory() {
        // Setting the top byte of the nested model length puts the
        // synthesizer section past 2^63: the tail read finds nothing, and
        // the file peek reports the truncation the in-memory peek does
        // rather than a failed seek.
        let mut bytes = wide_snapshot_bytes();
        bytes[p3gm_store::HEADER_LEN + 7] = 0xFF;
        let dir = std::env::temp_dir().join(format!("p3gm_peek_past_end_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("m.snapshot");
        std::fs::write(&path, &bytes).unwrap();
        let from_file = SnapshotHeader::peek_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            matches!(from_file, Err(p3gm_store::StoreError::Truncated { .. })),
            "{from_file:?}"
        );
        assert_eq!(from_file, SnapshotHeader::peek(&bytes));
    }

    #[test]
    fn header_peek_skips_weight_corruption_but_full_decode_catches_it() {
        // The design trade-off, stated as a test: a bit flip in the
        // weight payload leaves the header peek untouched (it never
        // reads those bytes) while the checksummed full decode rejects
        // the buffer. The registry relies on exactly this split — cheap
        // listing off headers, integrity enforced at first load.
        let (snapshot, _) = trained_snapshot();
        let bytes = snapshot.to_bytes();
        let header = SnapshotHeader::peek(&bytes).unwrap();
        let mut corrupt = bytes.clone();
        let mid = bytes.len() / 2; // deep inside the weight payload
        corrupt[mid] ^= 0x01;
        assert_eq!(SnapshotHeader::peek(&corrupt).unwrap(), header);
        assert!(SynthesisSnapshot::from_bytes(&corrupt).is_err());
    }

    #[test]
    fn malformed_snapshot_buffers_are_typed_errors() {
        let (snapshot, _) = trained_snapshot();
        let bytes = snapshot.to_bytes();
        for cut in (0..bytes.len()).step_by(11) {
            assert!(
                SynthesisSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "prefix {cut}"
            );
        }
        let mut corrupted = bytes.clone();
        corrupted[bytes.len() / 3] ^= 0x80;
        assert!(SynthesisSnapshot::from_bytes(&corrupted).is_err());
        // A bare model buffer is not a snapshot buffer.
        assert!(matches!(
            SynthesisSnapshot::from_bytes(&snapshot.model().to_bytes()),
            Err(p3gm_store::StoreError::WrongTag { .. })
        ));
    }
}
