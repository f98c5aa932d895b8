//! Output digests and comparisons. Every check runs outside the timed
//! intervals.

use perigap_core::MineOutcome;
use perigap_seq::Alphabet;

/// A mined pattern as `(text, support)`.
pub type Row = (String, u128);

/// Rows of `pgmine mine --format tsv` output (header line first).
pub fn tsv_rows(text: &str) -> Result<Vec<Row>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h.starts_with("pattern\t") => {}
        other => return Err(format!("missing TSV header, got {other:?}")),
    }
    lines
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut f = l.split('\t');
            let pattern = f.next().unwrap_or_default().to_string();
            let support = f
                .nth(1)
                .and_then(|s| s.parse::<u128>().ok())
                .ok_or_else(|| format!("bad TSV row {l:?}"))?;
            Ok((pattern, support))
        })
        .collect()
}

/// Read and parse a TSV output file; any failure is an oracle failure.
pub fn read_tsv(path: &std::path::Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path:?}: {e}"))?;
    tsv_rows(&text).map_err(|e| format!("{path:?}: {e}"))
}

pub fn outcome_rows(outcome: &MineOutcome, alphabet: &Alphabet) -> Vec<Row> {
    outcome
        .frequent
        .iter()
        .map(|f| (f.pattern.display(alphabet), f.support))
        .collect()
}

/// FNV-1a over a byte stream, continuing from `h` (start from
/// [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Order-independent FNV-1a digest of a pattern+support set.
pub fn digest(rows: &[Row]) -> u64 {
    let mut sorted: Vec<&Row> = rows.iter().collect();
    sorted.sort();
    sorted.into_iter().fold(FNV_OFFSET, |h, (p, s)| {
        let line = format!("{p}\t{s}\n");
        fnv1a(h, line.bytes())
    })
}

/// `Ok` when both sets hold the same rows; otherwise a description of
/// the first difference.
pub fn same_set(what: &str, expected: &[Row], got: &[Row]) -> Result<(), String> {
    if digest(expected) == digest(got) && expected.len() == got.len() {
        return Ok(());
    }
    let mut e: Vec<&Row> = expected.iter().collect();
    let mut g: Vec<&Row> = got.iter().collect();
    e.sort();
    g.sort();
    let first = e.iter().zip(g.iter()).find(|(a, b)| a != b);
    Err(format!(
        "{what}: {} rows expected, {} got (digest {:016x} vs {:016x}); first difference {first:?}",
        e.len(),
        g.len(),
        digest(expected),
        digest(got)
    ))
}

/// `Ok` when both lists hold the same rows in the same order.
pub fn same_list(what: &str, expected: &[Row], got: &[Row]) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let first = expected.iter().zip(got.iter()).position(|(a, b)| a != b);
    Err(format!(
        "{what}: {} rows expected, {} got; first differing index {first:?}",
        expected.len(),
        got.len()
    ))
}

/// Flip one support in place: the deliberate corruption the smoke
/// mode feeds the oracles to prove they can fail.
pub fn corrupt(rows: &mut [Row]) {
    if let Some(r) = rows.first_mut() {
        r.1 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_parses_and_digest_ignores_order() {
        let text =
            "pattern\tlength\tsupport\tratio\tgapped_form\nAC\t2\t7\t0.1\tA.C\nT\t1\t9\t0.2\tT\n";
        let rows = tsv_rows(text).unwrap();
        assert_eq!(rows, vec![("AC".into(), 7), ("T".into(), 9)]);
        let mut rev = rows.clone();
        rev.reverse();
        assert_eq!(digest(&rows), digest(&rev));
        assert!(same_set("x", &rows, &rev).is_ok());
        assert!(same_list("x", &rows, &rev).is_err());
        assert!(tsv_rows("garbage").is_err());
    }

    #[test]
    fn corruption_is_caught() {
        let rows: Vec<Row> = vec![("A".into(), 1), ("C".into(), 2)];
        let mut bad = rows.clone();
        corrupt(&mut bad);
        assert!(same_set("x", &rows, &bad).is_err());
        assert!(same_list("x", &rows, &bad).is_err());
    }
}
