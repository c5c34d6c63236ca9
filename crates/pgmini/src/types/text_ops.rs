//! Text operators: SQL LIKE/ILIKE matching and trigram extraction for the
//! GIN index (the pg_trgm stand-in used by the real-time analytics benchmark).

/// Match `text` against a SQL LIKE pattern (`%` any run, `_` any one char).
/// When both strings are ASCII the match walks bytes, folding ASCII case for
/// ILIKE; otherwise it walks chars. Only an ILIKE over non-ASCII text
/// allocates, to lowercase both sides.
pub fn like_match(text: &str, pattern: &str, case_insensitive: bool) -> bool {
    if text.is_ascii() && pattern.is_ascii() {
        like_bytes(text.as_bytes(), pattern.as_bytes(), case_insensitive)
    } else if case_insensitive {
        like_chars(&text.to_lowercase(), &pattern.to_lowercase())
    } else {
        like_chars(text, pattern)
    }
}

/// Iterative two-pointer LIKE matcher over ASCII bytes (linear for patterns
/// with one `%` run, no pathological backtracking).
fn like_bytes(text: &[u8], pat: &[u8], fold_case: bool) -> bool {
    let same = |a: u8, b: u8| if fold_case { a.eq_ignore_ascii_case(&b) } else { a == b };
    let (mut t, mut p) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while t < text.len() {
        match pat.get(p) {
            Some(b'_') => (t, p) = (t + 1, p + 1),
            Some(b'%') => (star_p, star_t, p) = (p, t, p + 1),
            Some(&c) if same(c, text[t]) => (t, p) = (t + 1, p + 1),
            // backtrack: let the last % absorb one more byte
            _ if star_p != usize::MAX => (p, star_t, t) = (star_p + 1, star_t + 1, star_t + 1),
            _ => return false,
        }
    }
    while pat.get(p) == Some(&b'%') {
        p += 1;
    }
    p == pat.len()
}

/// [`like_bytes`] stepping by chars: the positions are byte offsets at char
/// boundaries.
fn like_chars(text: &str, pat: &str) -> bool {
    let at = |s: &str, i: usize| s[i..].chars().next();
    let (mut t, mut p) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while let Some(tc) = at(text, t) {
        match at(pat, p) {
            Some('_') => (t, p) = (t + tc.len_utf8(), p + 1),
            Some('%') => (star_p, star_t, p) = (p, t, p + 1),
            Some(pc) if pc == tc => (t, p) = (t + tc.len_utf8(), p + pc.len_utf8()),
            // backtrack: let the last % absorb one more char
            _ if star_p != usize::MAX => {
                star_t += at(text, star_t).map_or(1, char::len_utf8);
                (p, t) = (star_p + 1, star_t);
            }
            _ => return false,
        }
    }
    while at(pat, p) == Some('%') {
        p += 1;
    }
    p == pat.len()
}

/// Extract pg_trgm-style trigrams: the string is lowercased and padded with
/// two leading and one trailing space, then every 3-char window is emitted.
pub fn trigrams(text: &str) -> Vec<[char; 3]> {
    let mut out = Vec::new();
    let lower = text.to_lowercase();
    // pg_trgm splits on non-alphanumerics and pads each word
    for word in lower.split(|c: char| !c.is_alphanumeric()) {
        if word.is_empty() {
            continue;
        }
        let padded: Vec<char> =
            std::iter::repeat_n(' ', 2).chain(word.chars()).chain(std::iter::once(' ')).collect();
        for w in padded.windows(3) {
            out.push([w[0], w[1], w[2]]);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Trigrams that any string matching `%substr%` must contain. Only trigrams
/// fully inside the substring are required (boundary trigrams depend on the
/// surrounding text). Returns `None` when the pattern is too short to prune
/// with (fewer than 3 consecutive literal characters).
pub fn required_trigrams_for_like(pattern: &str) -> Option<Vec<[char; 3]>> {
    // extract the longest literal run (no % or _)
    let lower = pattern.to_lowercase();
    let mut best: &str = "";
    for run in lower.split(['%', '_']) {
        if run.len() > best.len() {
            best = run;
        }
    }
    let chars: Vec<char> = best.chars().filter(|c| c.is_alphanumeric()).collect();
    if chars.len() < 3 {
        return None;
    }
    let mut out: Vec<[char; 3]> =
        chars.windows(3).map(|w| [w[0], w[1], w[2]]).collect();
    out.sort_unstable();
    out.dedup();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_basics() {
        assert!(like_match("hello", "hello", false));
        assert!(like_match("hello", "h%", false));
        assert!(like_match("hello", "%llo", false));
        assert!(like_match("hello", "%ell%", false));
        assert!(like_match("hello", "h_llo", false));
        assert!(!like_match("hello", "h_lo", false));
        assert!(!like_match("hello", "hello!", false));
        assert!(like_match("", "%", false));
        assert!(!like_match("", "_", false));
    }

    #[test]
    fn like_multiple_wildcards() {
        assert!(like_match("abcXdefYghi", "abc%def%ghi", false));
        assert!(!like_match("abcXdefYghi", "abc%xyz%ghi", false));
        assert!(like_match("aaa", "%a%a%", false));
    }

    #[test]
    fn ilike_folds_case() {
        assert!(like_match("PostgreSQL", "%postgres%", true));
        assert!(!like_match("PostgreSQL", "%postgres%", false));
    }

    #[test]
    fn like_walks_non_ascii_text_by_chars() {
        assert!(like_match("héllo", "h_llo", false));
        assert!(like_match("日本語テキスト", "%語_キ%", false));
        assert!(!like_match("日本語", "__", false));
        assert!(like_match("ÉCOLE", "%cole", true));
        assert!(like_match("straße", "STRA%", true));
    }

    /// The definition of LIKE, by recursion over chars: the reference both
    /// walks are held to.
    fn like_reference(text: &[char], pat: &[char]) -> bool {
        match pat.split_first() {
            None => text.is_empty(),
            Some(('%', rest)) => (0..=text.len()).any(|k| like_reference(&text[k..], rest)),
            Some((&c, rest)) => text
                .split_first()
                .is_some_and(|(&t, tail)| (c == '_' || c == t) && like_reference(tail, rest)),
        }
    }

    /// Random patterns with `_` and `%` runs over small alphabets: the byte
    /// walk and the char walk agree on ASCII text, and the char walk agrees
    /// with the definition on ASCII and non-ASCII text alike.
    #[test]
    fn byte_and_char_walks_agree_on_random_patterns() {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let ascii = ['a', 'b', 'A'];
        let wide = ['a', 'é', '日', 'ß'];
        for round in 0..4_000 {
            let alphabet: &[char] = if round % 2 == 0 { &ascii } else { &wide };
            let text: String = (0..next(8)).map(|_| alphabet[next(alphabet.len())]).collect();
            let pat: String = (0..next(7))
                .map(|_| match next(5) {
                    0 => '%',
                    1 => '_',
                    _ => alphabet[next(alphabet.len())],
                })
                .collect();
            let (tc, pc): (Vec<char>, Vec<char>) = (text.chars().collect(), pat.chars().collect());
            let want = like_reference(&tc, &pc);
            assert_eq!(like_chars(&text, &pat), want, "{text:?} LIKE {pat:?}");
            assert_eq!(like_match(&text, &pat, false), want, "{text:?} LIKE {pat:?}");
            if text.is_ascii() && pat.is_ascii() {
                assert_eq!(like_bytes(text.as_bytes(), pat.as_bytes(), false), want);
                let folded = like_reference(
                    &text.to_lowercase().chars().collect::<Vec<_>>(),
                    &pat.to_lowercase().chars().collect::<Vec<_>>(),
                );
                assert_eq!(like_match(&text, &pat, true), folded, "{text:?} ILIKE {pat:?}");
            }
        }
    }

    #[test]
    fn trigram_extraction() {
        let t = trigrams("cat");
        // "  cat " → "  c", " ca", "cat", "at "
        assert_eq!(t.len(), 4);
        assert!(t.contains(&[' ', ' ', 'c']));
        assert!(t.contains(&['c', 'a', 't']));
        assert!(t.contains(&['a', 't', ' ']));
    }

    #[test]
    fn trigrams_split_words_and_dedup() {
        let t = trigrams("cat cat!dog");
        let just_cat = trigrams("cat");
        let just_dog = trigrams("dog");
        for g in &just_cat {
            assert!(t.contains(g));
        }
        for g in &just_dog {
            assert!(t.contains(g));
        }
        assert_eq!(t.len(), just_cat.len() + just_dog.len());
    }

    #[test]
    fn required_trigrams_prune_correctly() {
        let req = required_trigrams_for_like("%postgres%").unwrap();
        // every required trigram must occur in a matching document's trigrams
        let doc = trigrams("I love postgres databases");
        for g in &req {
            assert!(doc.contains(g), "missing {g:?}");
        }
        assert!(required_trigrams_for_like("%ab%").is_none());
        assert!(required_trigrams_for_like("%").is_none());
    }

    #[test]
    fn required_trigrams_pick_longest_run() {
        let req = required_trigrams_for_like("%ab%longer%").unwrap();
        assert!(req.contains(&['l', 'o', 'n']));
    }
}
