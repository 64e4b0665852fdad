//! QWERTY keyboard geometry.
//!
//! The fat-finger distance (Moore & Edelman) restricts edit operations to
//! characters *adjacent on a QWERTY keyboard*; the typing-error model uses
//! the same adjacency to weight substitution and addition mistakes. Domain
//! names may contain `[a-z0-9-]`, so the model covers the digit row, the
//! letter rows, and the hyphen key.
//!
//! Adjacency is answered from a 128×128 lookup table ([`ADJACENCY`])
//! built at compile time from the row geometry, so the hot paths (the
//! typo engine, the distance kernels, `defense.rs`) pay a single indexed
//! load per query instead of scanning the rows. The table is checked for
//! symmetry inside its const builder (a stagger bug fails the build) and
//! again by a `debug_assert!` on the byte-level accessor.

/// Row/column coordinates of a key on a QWERTY layout.
///
/// Rows are numbered top (digit row) to bottom; columns follow the physical
/// stagger: each row is offset roughly half a key right of the row above,
/// which the adjacency predicate accounts for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyPos {
    /// Row index: 0 = digit row, 1 = qwerty row, 2 = home row, 3 = bottom.
    pub row: u8,
    /// Column index within the row, starting at 0.
    pub col: u8,
}

const ROWS: [&str; 4] = ["1234567890-", "qwertyuiop", "asdfghjkl", "zxcvbnm"];

/// Byte view of [`ROWS`] for the `const` table builder.
const ROW_BYTES: [&[u8]; 4] = [b"1234567890-", b"qwertyuiop", b"asdfghjkl", b"zxcvbnm"];

/// The domain-label alphabet as bytes, in the generator's stable order:
/// `a..z`, `0..9`, `-`. Byte-level twin of [`alphabet`].
pub const ALPHABET: [u8; 37] = *b"abcdefghijklmnopqrstuvwxyz0123456789-";

/// `const` scan of the row geometry (compile-time only; runtime queries go
/// through [`ADJACENCY`]).
const fn key_pos_scan(c: u8) -> Option<(u8, u8)> {
    let c = c.to_ascii_lowercase();
    let mut r = 0;
    while r < ROW_BYTES.len() {
        let row = ROW_BYTES[r];
        let mut col = 0;
        while col < row.len() {
            if row[col] == c {
                return Some((r as u8, col as u8));
            }
            col += 1;
        }
        r += 1;
    }
    None
}

/// `const` twin of [`adjacent`], used to fill [`ADJACENCY`].
const fn adjacent_scan(a: u8, b: u8) -> bool {
    let (pa, pb) = match (key_pos_scan(a), key_pos_scan(b)) {
        (Some(pa), Some(pb)) => (pa, pb),
        _ => return false,
    };
    if pa.0 == pb.0 {
        return pa.1.abs_diff(pb.1) == 1;
    }
    if pa.0.abs_diff(pb.0) != 1 {
        return false;
    }
    // Order so `upper` is the higher row (smaller index).
    let (upper, lower) = if pa.0 < pb.0 { (pa, pb) } else { (pb, pa) };
    // Lower-row key at column c sits between upper-row columns c and c+1.
    lower.1 == upper.1 || lower.1 + 1 == upper.1
}

const fn build_adjacency() -> [[bool; 128]; 128] {
    let mut table = [[false; 128]; 128];
    let mut a = 0;
    while a < 128 {
        let mut b = 0;
        while b < 128 {
            table[a][b] = adjacent_scan(a as u8, b as u8);
            b += 1;
        }
        a += 1;
    }
    // Compile-time check: physical adjacency must be symmetric. A stagger
    // bug in `adjacent_scan` would fail the build here rather than skew
    // the typo model silently.
    let mut a = 0;
    while a < 128 {
        let mut b = 0;
        while b < 128 {
            assert!(
                table[a][b] == table[b][a],
                "keyboard adjacency must be symmetric"
            );
            b += 1;
        }
        a += 1;
    }
    table
}

/// Precomputed QWERTY adjacency for every pair of ASCII bytes (uppercase
/// letters fold to lowercase; non-keyboard bytes are never adjacent).
///
/// Shared by the typo engine, the fat-finger distance, and the defense
/// toolkit — index as `ADJACENCY[a as usize][b as usize]`. A `static`
/// rather than a `const` so the 16 KiB table is built (and its symmetry
/// assertion evaluated) exactly once, here, instead of at every use site.
#[allow(long_running_const_eval)] // 16k-cell table; finite by construction
pub static ADJACENCY: [[bool; 128]; 128] = build_adjacency();

/// Returns the position of `c` on the QWERTY layout, or `None` for
/// characters that do not appear in domain names.
pub fn key_pos(c: char) -> Option<KeyPos> {
    let c = c.to_ascii_lowercase();
    for (r, row) in ROWS.iter().enumerate() {
        if let Some(col) = row.find(c) {
            return Some(KeyPos {
                row: r as u8,
                col: col as u8,
            });
        }
    }
    None
}

/// Whether two characters sit on physically adjacent QWERTY keys.
///
/// Two keys are adjacent when they are neighbors in the same row, or in
/// neighboring rows with columns offset by at most one after accounting for
/// the stagger (row `r+1` is shifted ~half a key right of row `r`, so key
/// `(r+1, c)` touches `(r, c)` and `(r, c+1)`).
///
/// ```
/// use ets_core::keyboard::adjacent;
/// assert!(adjacent('g', 'h'));   // same row
/// assert!(adjacent('g', 't'));   // row above
/// assert!(adjacent('g', 'b'));   // row below
/// assert!(!adjacent('g', 'p'));
/// assert!(adjacent('o', '0'));   // digit row neighbors letters
/// ```
pub fn adjacent(a: char, b: char) -> bool {
    if a.is_ascii() && b.is_ascii() {
        adjacent_bytes(a as u8, b as u8)
    } else {
        false
    }
}

/// Byte-level adjacency lookup — the zero-branch fast path used by the
/// typo engine and distance kernels (`ADJACENCY` indexed load).
#[inline]
pub fn adjacent_bytes(a: u8, b: u8) -> bool {
    debug_assert!(
        a >= 128
            || b >= 128
            || ADJACENCY[a as usize][b as usize] == ADJACENCY[b as usize][a as usize],
        "keyboard adjacency must be symmetric"
    );
    a < 128 && b < 128 && ADJACENCY[a as usize][b as usize]
}

/// All keys adjacent to `c`, in layout order.
///
/// Used by the typo generator to enumerate fat-finger substitutions and
/// additions, and by the typing model to weight mistake probabilities.
pub fn neighbors(c: char) -> Vec<char> {
    let mut out = Vec::new();
    for row in ROWS {
        for cand in row.chars() {
            if cand != c.to_ascii_lowercase() && adjacent(c, cand) {
                out.push(cand);
            }
        }
    }
    out
}

/// The full domain-label alphabet in a stable order: `a..z`, `0..9`, `-`.
pub fn alphabet() -> impl Iterator<Item = char> {
    ('a'..='z').chain('0'..='9').chain(std::iter::once('-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_const_matches_iterator() {
        let chars: Vec<char> = alphabet().collect();
        let bytes: Vec<char> = ALPHABET.iter().map(|&b| b as char).collect();
        assert_eq!(chars, bytes);
    }

    #[test]
    fn positions_cover_alphabet() {
        for c in alphabet() {
            assert!(key_pos(c).is_some(), "no position for {c:?}");
        }
        assert!(key_pos('!').is_none());
        assert!(key_pos('.').is_none());
    }

    #[test]
    fn same_row_adjacency() {
        assert!(adjacent('a', 's'));
        assert!(adjacent('s', 'a'));
        assert!(!adjacent('a', 'd'));
        assert!(!adjacent('a', 'a'));
    }

    #[test]
    fn cross_row_adjacency() {
        // home row g: neighbors f,h (row), t,y (above), v,b (below)
        let n = neighbors('g');
        for c in ['f', 'h', 't', 'y', 'v', 'b'] {
            assert!(n.contains(&c), "g should neighbor {c}, got {n:?}");
        }
        assert_eq!(n.len(), 6);
    }

    #[test]
    fn digit_row_touches_letters() {
        assert!(adjacent('q', '1'));
        assert!(adjacent('q', '2'));
        assert!(adjacent('0', 'o'));
        assert!(adjacent('0', 'p'));
        // The paper registered o7tlook.com and ho6mail.com: 7/u and 6/t are
        // fat-finger confusions.
        assert!(adjacent('u', '7'));
        assert!(adjacent('t', '6'));
        // and outlo0k.com: 0/o
        assert!(adjacent('o', '0'));
    }

    #[test]
    fn hyphen_neighbors_p_and_zero() {
        let n = neighbors('-');
        assert!(n.contains(&'0'));
        assert!(n.contains(&'p'));
    }

    #[test]
    fn adjacency_is_symmetric() {
        let alpha: Vec<char> = alphabet().collect();
        for &a in &alpha {
            for &b in &alpha {
                assert_eq!(adjacent(a, b), adjacent(b, a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn neighbors_bounded() {
        // No key on this layout has more than 8 in-alphabet neighbors.
        for c in alphabet() {
            let n = neighbors(c).len();
            assert!((2..=8).contains(&n), "{c} has {n} neighbors");
        }
    }
}
