//! Text tokenization shared by the keyword index and the generators.

/// Tokenizes text for keyword matching: lowercased maximal runs of
/// alphanumeric characters. `"Power-law (Internet)"` becomes
/// `["power", "law", "internet"]`.
///
/// Idempotent — `tokenize(&tokenize(s).join(" ")) == tokenize(s)` — so a
/// row is reachable by its tokens however they are spelled back: where
/// a character's lowercase form expands to a letter plus combining marks
/// (`'İ'` → `"i\u{307}"`), only the alphanumeric part is kept, the part
/// that survives a second pass.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, &mut String::new(), |tok| out.push(tok.to_owned()));
    out
}

/// Streams the tokens of [`tokenize`] to `f` without allocating one
/// `String` each: every token is assembled in `buf` (the caller's, so a
/// loop over many texts reuses one buffer) and lent to `f`.
pub fn for_each_token(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    buf.clear();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            buf.extend(ch.to_lowercase().filter(|c| c.is_alphanumeric()));
        } else if !buf.is_empty() {
            f(buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        f(buf);
        buf.clear();
    }
}

/// True when every query keyword appears as a token of `text`.
/// This is the per-tuple conjunctive semantics of the paper's queries
/// (e.g. Q: "Christos Faloutsos" matches the Author tuple containing both).
pub fn contains_all_keywords(text: &str, keywords: &[String]) -> bool {
    let tokens = tokenize(text);
    keywords.iter().all(|k| tokens.iter().any(|t| t == k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_on_non_alnum() {
        assert_eq!(
            tokenize("On Power-law Relationships"),
            vec!["on", "power", "law", "relationships"]
        );
    }

    #[test]
    fn tokenize_lowercases_and_keeps_digits() {
        assert_eq!(tokenize("SIGCOMM 1999"), vec!["sigcomm", "1999"]);
    }

    #[test]
    fn tokenize_empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- !!").is_empty());
    }

    #[test]
    fn tokenize_keeps_only_the_alphanumeric_part_of_a_lowercase_expansion() {
        // 'İ' lower-cases to 'i' + U+0307 (a combining mark): appended
        // whole, the token would split on the mark when spelled back.
        assert_eq!(tokenize("İstanbul"), vec!["istanbul"]);
        assert_eq!(tokenize("i\u{307}stanbul"), vec!["i", "stanbul"], "a bare mark separates");
        assert_eq!(tokenize(&tokenize("İstanbul").join(" ")), tokenize("İstanbul"));
    }

    #[test]
    fn every_kept_char_survives_a_second_pass_unchanged() {
        // Idempotence, char by char and exhaustively: whatever a char
        // contributes to a token, tokenizing that contribution again
        // yields it back as one token.
        for ch in (0..=char::MAX as u32).filter_map(char::from_u32) {
            let once = tokenize(ch.encode_utf8(&mut [0; 4]));
            assert!(once.len() <= 1, "{ch:?} alone yields {once:?}");
            if let Some(tok) = once.first() {
                assert_eq!(tokenize(tok), once, "{ch:?} -> {tok:?}");
            }
        }
    }

    #[test]
    fn conjunctive_match() {
        let kws = vec!["christos".to_owned(), "faloutsos".to_owned()];
        assert!(contains_all_keywords("Christos Faloutsos", &kws));
        assert!(!contains_all_keywords("Michalis Faloutsos", &kws));
        // substring is not a token match
        assert!(!contains_all_keywords("Christosfaloutsos", &kws));
    }
}
