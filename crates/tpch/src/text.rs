//! Text pools for the generator: the spec-fixed region and nation
//! names (with their region assignments) and small word pools for
//! synthetic fields (dbgen's grammar-generated comments are replaced by
//! short word-pool phrases — the paper's experiments never read comment
//! contents, only their width matters for scan volume).

use std::fmt::Write;

use rand::Rng;

/// The five TPC-H regions, in key order.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 25 TPC-H nations as `(name, region_key)`, in nation-key order
/// (per the TPC-H specification's fixed nation table).
pub(crate) const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("ROMANIA", 3),
    ("RUSSIA", 3),
    ("SAUDI ARABIA", 4),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
    ("VIETNAM", 2),
    ("CHINA", 2),
];

/// Market segments (customer.c_mktsegment domain).
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];

/// Order priorities (orders.o_orderpriority domain).
pub(crate) const PRIORITIES: [&str; 5] =
    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Ship instructions (lineitem.l_shipinstruct domain).
pub(crate) const INSTRUCTIONS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

/// Ship modes (lineitem.l_shipmode domain).
pub const MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// Part type components (p_type = "syllable1 syllable2 syllable3").
pub(crate) const TYPE_SYLLABLE_1: [&str; 6] =
    ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
/// Second part-type syllable.
pub(crate) const TYPE_SYLLABLE_2: [&str; 5] =
    ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
/// Third part-type syllable.
pub(crate) const TYPE_SYLLABLE_3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// Container size words.
pub(crate) const CONTAINER_1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
/// Container kind words.
pub(crate) const CONTAINER_2: [&str; 8] =
    ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

/// Part-name colour pool (p_name concatenates five of these in dbgen;
/// we use two to keep rows compact — width, not content, is what the
/// experiments exercise).
pub(crate) const COLORS: [&str; 20] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cream",
    "cyan",
];

/// Word pool for synthetic comments.
pub(crate) const COMMENT_WORDS: [&str; 24] = [
    "carefully",
    "quickly",
    "furiously",
    "slyly",
    "blithely",
    "ironic",
    "final",
    "pending",
    "regular",
    "express",
    "special",
    "bold",
    "even",
    "silent",
    "unusual",
    "daring",
    "deposits",
    "requests",
    "packages",
    "accounts",
    "instructions",
    "theodolites",
    "foxes",
    "platelets",
];

// The synthetic fields are written into a caller's buffer, replacing
// what it held: the generator refills one buffer per column instead of
// allocating per row.

/// A short synthetic comment of `words` words, into `out`.
pub(crate) fn comment_into<R: Rng>(rng: &mut R, words: usize, out: &mut String) {
    out.clear();
    for i in 0..words {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(COMMENT_WORDS[rng.gen_range(0..COMMENT_WORDS.len())]);
    }
}

/// A spec-style phone number for a nation key, into `out`:
/// `CC-DDD-DDD-DDDD` where the country code is `10 + nation_key`.
pub(crate) fn phone_into<R: Rng>(rng: &mut R, nation_key: i64, out: &mut String) {
    out.clear();
    // Writing into a `String` cannot fail.
    let _ = write!(
        out,
        "{}-{}-{}-{}",
        10 + nation_key,
        rng.gen_range(100..1000),
        rng.gen_range(100..1000),
        rng.gen_range(1000..10000)
    );
}

/// A synthetic street address, into `out`.
pub(crate) fn address_into<R: Rng>(rng: &mut R, out: &mut String) {
    out.clear();
    let _ = write!(
        out,
        "{} {} {}",
        rng.gen_range(1..9999),
        COMMENT_WORDS[rng.gen_range(0..COMMENT_WORDS.len())],
        if rng.gen_bool(0.5) { "St" } else { "Ave" }
    );
}

/// Lookup a region key by name (case-sensitive, spec spelling).
pub fn region_key(name: &str) -> Option<i64> {
    REGIONS.iter().position(|r| *r == name).map(|i| i as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nations_reference_valid_regions() {
        for (name, rk) in NATIONS {
            assert!((0..5).contains(&rk), "nation {name} region {rk}");
        }
        assert_eq!(NATIONS.len(), 25);
    }

    #[test]
    fn every_region_has_five_nations() {
        // The spec's nation table assigns exactly 5 nations per region —
        // this uniformity is why the paper's ten Q5 variants "perform
        // the same amount of work".
        for rk in 0..5i64 {
            let n = NATIONS.iter().filter(|(_, r)| *r == rk).count();
            assert_eq!(n, 5, "region {rk} has {n} nations");
        }
    }

    #[test]
    fn region_key_lookup() {
        assert_eq!(region_key("ASIA"), Some(2));
        assert_eq!(region_key("AMERICA"), Some(1));
        assert_eq!(region_key("NARNIA"), None);
    }

    #[test]
    fn phone_embeds_country_code() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = "stale".to_string();
        phone_into(&mut rng, 12, &mut p);
        assert!(p.starts_with("22-"), "{p}");
        assert_eq!(p.split('-').count(), 4);
    }

    #[test]
    fn comment_word_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut c = "stale".to_string();
        comment_into(&mut rng, 5, &mut c);
        assert_eq!(c.split(' ').count(), 5);
    }
}
