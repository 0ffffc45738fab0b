//! The sliding-window grid: the one place that decides which windows
//! exist. The scan, the store writer, the planner's serve check and the
//! rule baseline all go through these constants and functions, so the
//! windows ingest persists are the windows a query asks for by
//! construction.

use sketchql_store::Manifest;

/// Window lengths, as multiples of the query's duration.
const WINDOW_SCALES: [f32; 3] = [0.75, 1.0, 1.5];

/// Window stride, as a fraction of the window length.
pub(crate) const STRIDE_FRAC: f32 = 0.25;

/// A track must cover at least this fraction of a window to be one of
/// its candidates.
pub(crate) const MIN_OVERLAP_FRAC: f32 = 0.5;

/// The smallest window (frames): a shorter derived length is clamped up
/// to it, and a query shorter than it matches nothing.
pub const MIN_WINDOW: u32 = 16;

/// The window lengths a query of `span` frames derives, one per scale in
/// scale order, each clamped up to [`MIN_WINDOW`] (so two can coincide).
pub(crate) fn window_lens(span: u32) -> [u32; 3] {
    WINDOW_SCALES.map(|scale| ((span as f32 * scale) as u32).max(MIN_WINDOW))
}

/// Every `(start, end, min_overlap)` window a query of `span` frames
/// scans over a video of `frames` frames: each length's grid in scale
/// order, a length longer than the video skipped, a window two lengths
/// share (clamped lengths, clamped tails) kept at its first occurrence.
///
/// Only two kinds of window can repeat. A length equal to an earlier one
/// repeats its whole grid. Two distinct lengths can share only a window
/// that ends clamped to the last frame, since an unclamped end fixes the
/// length; and each grid has exactly one such window, its last.
pub(crate) fn query_windows(span: u32, frames: u32) -> Vec<(u32, u32, u32)> {
    let lens = window_lens(span);
    let mut out = Vec::new();
    let mut tails = Vec::with_capacity(lens.len());
    for (k, &len) in lens.iter().enumerate() {
        if len > frames || lens[..k].contains(&len) {
            continue;
        }
        out.extend(windows(len, frames, None));
        if let Some(&tail) = out.last() {
            if tails.contains(&tail) {
                out.pop();
            } else {
                tails.push(tail);
            }
        }
    }
    out
}

/// The `(start, end, min_overlap)` windows of one length over a video of
/// `frames` frames: starts at multiples of the stride from 0, stopping
/// at the first window that reaches the last frame, with that tail
/// window's end clamped to it (so `len >= frames` yields the single
/// window `(0, frames - 1)`; skipping lengths longer than the video is
/// the caller's policy). `min_overlap` is the number of frames a track
/// must cover to take part.
///
/// `starts` restricts the sequence to windows whose start frame lies in
/// the inclusive range — every window starts in exactly one of a set of
/// disjoint covering ranges, so such ranges partition the grid.
pub(crate) fn windows(
    len: u32,
    frames: u32,
    starts: Option<(u32, u32)>,
) -> impl Iterator<Item = (u32, u32, u32)> {
    let stride = ((len as f32 * STRIDE_FRAC) as u32).max(1);
    let min_overlap = ((len as f32 * MIN_OVERLAP_FRAC) as u32).max(1);
    let last_frame = frames.saturating_sub(1);
    let last_start = frames.saturating_sub(len).div_ceil(stride) * stride;
    let (lo, hi) = starts.unwrap_or((0, u32::MAX));
    // No length, no video: an empty range.
    let (first, stop) = if len == 0 || frames == 0 {
        (1, 0)
    } else {
        (
            lo.div_ceil(stride).saturating_mul(stride),
            hi.min(last_start),
        )
    };
    (first..=stop).step_by(stride as usize).map(move |start| {
        let end = start.saturating_add(len - 1).min(last_frame);
        (start, end, min_overlap)
    })
}

/// Whether a manifest records this grid's stride and overlap floor (by
/// bit pattern, as ingest writes them). Every set this crate ingests
/// does; a set from outside may not.
pub(crate) fn is_recorded_in(manifest: &Manifest) -> bool {
    manifest.stride_frac_bits == STRIDE_FRAC.to_bits()
        && manifest.min_overlap_frac_bits == MIN_OVERLAP_FRAC.to_bits()
}

/// The first start frame whose window can change when a video of
/// `old_frames` frames grows: a window of at most `max_len` frames
/// starting earlier ended inside the old video, unclamped, and is
/// untouched by a pure extension.
pub(crate) fn first_touched_start(old_frames: u32, max_len: u32) -> u32 {
    old_frames.saturating_sub(max_len.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(len: u32, frames: u32, starts: Option<(u32, u32)>) -> Vec<(u32, u32, u32)> {
        windows(len, frames, starts).collect()
    }

    #[test]
    fn tail_clamps_and_an_overlong_length_is_one_window() {
        assert_eq!(all(20, 30, None), [(0, 19, 10), (5, 24, 10), (10, 29, 10)]);
        assert_eq!(all(20, 27, None), [(0, 19, 10), (5, 24, 10), (10, 26, 10)]);
        assert_eq!(all(40, 30, None), [(0, 29, 20)]);
        assert!(all(40, 0, None).is_empty());
        // A start range keeps exactly the windows that start inside it.
        assert_eq!(all(20, 30, Some((3, 9))), [(5, 24, 10)]);
    }

    /// The reference: every length's grid in scale order, deduplicated
    /// by a set of the triples seen so far.
    fn query_windows_by_set(span: u32, frames: u32) -> Vec<(u32, u32, u32)> {
        let mut seen = std::collections::HashSet::new();
        window_lens(span)
            .into_iter()
            .filter(|&len| len <= frames)
            .flat_map(|len| windows(len, frames, None))
            .filter(|&w| seen.insert(w))
            .collect()
    }

    #[test]
    fn query_windows_equal_the_set_deduplicated_grids_in_order() {
        for frames in [0u32, 1, 15, 16, 17, 30, 31, 64, 100, 257, 601, 1900] {
            for span in (0..=600).chain([1_000, 5_000]) {
                assert_eq!(
                    query_windows(span, frames),
                    query_windows_by_set(span, frames),
                    "span {span}, frames {frames}"
                );
            }
        }
    }

    #[test]
    fn an_extension_leaves_windows_before_the_bound_alone() {
        for (len, old, new) in [(16u32, 100u32, 130u32), (24, 50, 51), (60, 40, 90)] {
            let bound = first_touched_start(old, len);
            let before = |frames| all(len, frames, None).into_iter().filter(|w| w.0 < bound);
            assert!(
                before(old).eq(before(new)),
                "len {len}: changed below {bound}"
            );
        }
    }
}
