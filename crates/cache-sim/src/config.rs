//! Cache configuration types and the Table 1 design space.
//!
//! The paper subsets the full configuration space by fixing each core's
//! total cache size, so a configuration's *size* determines which core can
//! offer it. Table 1 restricts associativity by size (a 2 KB cache has too
//! few lines for 2- or 4-way sets at the largest line size, and the paper's
//! prior work [1] chose the same subsets):
//!
//! | size | associativities | line sizes |
//! |------|-----------------|------------|
//! | 2 KB | 1W              | 16/32/64 B |
//! | 4 KB | 1W, 2W          | 16/32/64 B |
//! | 8 KB | 1W, 2W, 4W      | 16/32/64 B |
//!
//! for a total of `(1 + 2 + 3) * 3 = 18` configurations.

use std::fmt;
use std::str::FromStr;

/// Total L1 cache capacity in kilobytes. One of 2, 4, or 8.
///
/// In the paper's architecture the size is *fixed per core* (Core 1 → 2 KB,
/// Core 2 → 4 KB, Cores 3 and 4 → 8 KB), so predicting an application's best
/// cache size is equivalent to predicting its best core.
///
/// ```
/// use cache_sim::CacheSizeKb;
/// assert_eq!(CacheSizeKb::K8.bytes(), 8192);
/// assert!(CacheSizeKb::K2 < CacheSizeKb::K8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheSizeKb {
    /// 2 KB.
    K2,
    /// 4 KB.
    K4,
    /// 8 KB.
    K8,
}

impl CacheSizeKb {
    /// All sizes, smallest first.
    pub const ALL: [CacheSizeKb; 3] = [CacheSizeKb::K2, CacheSizeKb::K4, CacheSizeKb::K8];

    /// Capacity in kilobytes.
    pub fn kilobytes(self) -> u32 {
        match self {
            CacheSizeKb::K2 => 2,
            CacheSizeKb::K4 => 4,
            CacheSizeKb::K8 => 8,
        }
    }

    /// Capacity in bytes.
    pub fn bytes(self) -> u32 {
        self.kilobytes() * 1024
    }

    /// The largest associativity Table 1 permits at this size.
    pub fn max_associativity(self) -> Associativity {
        match self {
            CacheSizeKb::K2 => Associativity::Direct,
            CacheSizeKb::K4 => Associativity::Two,
            CacheSizeKb::K8 => Associativity::Four,
        }
    }

    /// Parse from a kilobyte count.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Size`] if `kb` is not 2, 4, or 8.
    pub fn from_kilobytes(kb: u32) -> Result<Self, ConfigError> {
        match kb {
            2 => Ok(CacheSizeKb::K2),
            4 => Ok(CacheSizeKb::K4),
            8 => Ok(CacheSizeKb::K8),
            other => Err(ConfigError::Size(other)),
        }
    }

    /// The nearest valid size to a fractional kilobyte value, used to snap
    /// an ANN regression output onto the design space.
    ///
    /// ```
    /// use cache_sim::CacheSizeKb;
    /// assert_eq!(CacheSizeKb::nearest(2.9), CacheSizeKb::K2);
    /// assert_eq!(CacheSizeKb::nearest(3.1), CacheSizeKb::K4);
    /// assert_eq!(CacheSizeKb::nearest(100.0), CacheSizeKb::K8);
    /// ```
    pub fn nearest(kb: f64) -> Self {
        let mut best = CacheSizeKb::K2;
        let mut best_dist = f64::INFINITY;
        for size in Self::ALL {
            let dist = (f64::from(size.kilobytes()) - kb).abs();
            if dist < best_dist {
                best = size;
                best_dist = dist;
            }
        }
        best
    }
}

impl fmt::Display for CacheSizeKb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}KB", self.kilobytes())
    }
}

/// Set associativity in ways: direct-mapped, 2-way, or 4-way.
///
/// ```
/// use cache_sim::Associativity;
/// assert_eq!(Associativity::Two.ways(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Associativity {
    /// Direct-mapped (1-way).
    Direct,
    /// 2-way set-associative.
    Two,
    /// 4-way set-associative.
    Four,
}

impl Associativity {
    /// All associativities, smallest first — the exploration order of the
    /// paper's Figure 5 tuning heuristic.
    pub const ALL: [Associativity; 3] = [
        Associativity::Direct,
        Associativity::Two,
        Associativity::Four,
    ];

    /// Number of ways.
    pub fn ways(self) -> u32 {
        match self {
            Associativity::Direct => 1,
            Associativity::Two => 2,
            Associativity::Four => 4,
        }
    }

    /// Parse from a way count.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Associativity`] if `ways` is not 1, 2, or 4.
    pub fn from_ways(ways: u32) -> Result<Self, ConfigError> {
        match ways {
            1 => Ok(Associativity::Direct),
            2 => Ok(Associativity::Two),
            4 => Ok(Associativity::Four),
            other => Err(ConfigError::Associativity(other)),
        }
    }

    /// The next larger associativity, if any (Figure 5 exploration step).
    pub fn next_larger(self) -> Option<Associativity> {
        match self {
            Associativity::Direct => Some(Associativity::Two),
            Associativity::Two => Some(Associativity::Four),
            Associativity::Four => None,
        }
    }
}

impl fmt::Display for Associativity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}W", self.ways())
    }
}

/// Cache line (block) size in bytes: 16, 32, or 64.
///
/// ```
/// use cache_sim::LineSize;
/// assert_eq!(LineSize::B32.bytes(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LineSize {
    /// 16-byte lines.
    B16,
    /// 32-byte lines.
    B32,
    /// 64-byte lines.
    B64,
}

impl LineSize {
    /// All line sizes, smallest first — the exploration order of the
    /// paper's Figure 5 tuning heuristic.
    pub const ALL: [LineSize; 3] = [LineSize::B16, LineSize::B32, LineSize::B64];

    /// Line size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            LineSize::B16 => 16,
            LineSize::B32 => 32,
            LineSize::B64 => 64,
        }
    }

    /// Parse from a byte count.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::LineSize`] if `bytes` is not 16, 32, or 64.
    pub fn from_bytes(bytes: u32) -> Result<Self, ConfigError> {
        match bytes {
            16 => Ok(LineSize::B16),
            32 => Ok(LineSize::B32),
            64 => Ok(LineSize::B64),
            other => Err(ConfigError::LineSize(other)),
        }
    }

    /// The next larger line size, if any (Figure 5 exploration step).
    pub fn next_larger(self) -> Option<LineSize> {
        match self {
            LineSize::B16 => Some(LineSize::B32),
            LineSize::B32 => Some(LineSize::B64),
            LineSize::B64 => None,
        }
    }
}

impl fmt::Display for LineSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.bytes())
    }
}

/// A complete L1 cache configuration: size, associativity, and line size.
///
/// Only the 18 combinations of Table 1 are constructible through [`new`];
/// its display format matches the paper's `8KB_4W_64B` notation.
///
/// ```
/// use cache_sim::{Associativity, CacheConfig, CacheSizeKb, LineSize};
///
/// # fn main() -> Result<(), cache_sim::ConfigError> {
/// let config = CacheConfig::new(CacheSizeKb::K8, Associativity::Four, LineSize::B64)?;
/// assert_eq!(config.to_string(), "8KB_4W_64B");
/// assert_eq!(config.num_sets(), 32);
/// # Ok(())
/// # }
/// ```
///
/// [`new`]: CacheConfig::new
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheConfig {
    size: CacheSizeKb,
    associativity: Associativity,
    line: LineSize,
}

/// The number of configurations in Table 1.
pub const DESIGN_SPACE_LEN: usize = 18;

/// The paper's base configuration (`8KB_4W_64B`): the largest cache with the
/// fewest misses, used for profiling and for the fixed-configuration base
/// system.
pub const BASE_CONFIG: CacheConfig = CacheConfig {
    size: CacheSizeKb::K8,
    associativity: Associativity::Four,
    line: LineSize::B64,
};

impl CacheConfig {
    /// Create a configuration, enforcing the Table 1 subset rule.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] when the associativity exceeds what
    /// Table 1 permits for the size (2 KB → 1W only, 4 KB → up to 2W).
    pub fn new(
        size: CacheSizeKb,
        associativity: Associativity,
        line: LineSize,
    ) -> Result<Self, ConfigError> {
        if associativity > size.max_associativity() {
            return Err(ConfigError::Invalid {
                size,
                associativity,
            });
        }
        Ok(CacheConfig {
            size,
            associativity,
            line,
        })
    }

    /// Parse the paper's `"<size>KB_<ways>W_<line>B"` notation.
    ///
    /// ```
    /// use cache_sim::CacheConfig;
    /// # fn main() -> Result<(), cache_sim::ConfigError> {
    /// let config = CacheConfig::parse("2KB_1W_16B")?;
    /// assert_eq!(config.size().kilobytes(), 2);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first malformed or invalid
    /// component.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut parts = text.split('_');
        let size = parts
            .next()
            .and_then(|p| p.strip_suffix("KB"))
            .and_then(|p| p.parse::<u32>().ok())
            .ok_or_else(|| ConfigError::Parse(text.to_owned()))?;
        let ways = parts
            .next()
            .and_then(|p| p.strip_suffix('W'))
            .and_then(|p| p.parse::<u32>().ok())
            .ok_or_else(|| ConfigError::Parse(text.to_owned()))?;
        let line = parts
            .next()
            .and_then(|p| p.strip_suffix('B'))
            .and_then(|p| p.parse::<u32>().ok())
            .ok_or_else(|| ConfigError::Parse(text.to_owned()))?;
        if parts.next().is_some() {
            return Err(ConfigError::Parse(text.to_owned()));
        }
        CacheConfig::new(
            CacheSizeKb::from_kilobytes(size)?,
            Associativity::from_ways(ways)?,
            LineSize::from_bytes(line)?,
        )
    }

    /// Total capacity.
    pub fn size(self) -> CacheSizeKb {
        self.size
    }

    /// Set associativity.
    pub fn associativity(self) -> Associativity {
        self.associativity
    }

    /// Line size.
    pub fn line(self) -> LineSize {
        self.line
    }

    /// Number of sets: `capacity / (line * ways)`.
    pub fn num_sets(self) -> u32 {
        self.size.bytes() / (self.line.bytes() * self.associativity.ways())
    }

    /// Total number of cache lines.
    pub fn num_lines(self) -> u32 {
        self.size.bytes() / self.line.bytes()
    }

    /// Replace the associativity, keeping size and line (tuning move).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] if the new associativity violates
    /// Table 1 at this size.
    pub fn with_associativity(self, associativity: Associativity) -> Result<Self, ConfigError> {
        CacheConfig::new(self.size, associativity, self.line)
    }

    /// Replace the line size, keeping size and associativity (tuning move).
    pub fn with_line(self, line: LineSize) -> Self {
        // Line size never affects Table 1 validity.
        CacheConfig { line, ..self }
    }

    /// Index of this configuration within [`design_space`] order: the
    /// 3 + 6 configurations of the smaller sizes come first, then three
    /// lines per associativity.
    pub fn design_space_index(self) -> usize {
        let offset = match self.size {
            CacheSizeKb::K2 => 0,
            CacheSizeKb::K4 => 3,
            CacheSizeKb::K8 => 9,
        };
        offset + 3 * self.associativity as usize + self.line as usize
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}_{}", self.size, self.associativity, self.line)
    }
}

impl FromStr for CacheConfig {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CacheConfig::parse(s)
    }
}

/// Iterate over all 18 Table 1 configurations in (size, associativity, line)
/// lexicographic order — the same row order as the paper's table.
///
/// ```
/// use cache_sim::{design_space, DESIGN_SPACE_LEN};
/// assert_eq!(design_space().count(), DESIGN_SPACE_LEN);
/// ```
pub fn design_space() -> impl Iterator<Item = CacheConfig> + Clone {
    CacheSizeKb::ALL.into_iter().flat_map(|size| {
        Associativity::ALL
            .into_iter()
            .filter(move |a| *a <= size.max_associativity())
            .flat_map(move |associativity| {
                LineSize::ALL.into_iter().map(move |line| CacheConfig {
                    size,
                    associativity,
                    line,
                })
            })
    })
}

/// Error building or parsing a [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Size is not one of 2, 4, or 8 KB.
    Size(u32),
    /// Associativity is not one of 1, 2, or 4 ways.
    Associativity(u32),
    /// Line size is not one of 16, 32, or 64 bytes.
    LineSize(u32),
    /// The (size, associativity) pair is outside the Table 1 subset.
    Invalid {
        /// The requested cache size.
        size: CacheSizeKb,
        /// The requested associativity.
        associativity: Associativity,
    },
    /// The `"<n>KB_<n>W_<n>B"` notation was malformed.
    Parse(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Size(kb) => write!(f, "invalid cache size {kb} KB (expected 2, 4, or 8)"),
            ConfigError::Associativity(w) => {
                write!(f, "invalid associativity {w} ways (expected 1, 2, or 4)")
            }
            ConfigError::LineSize(b) => {
                write!(f, "invalid line size {b} B (expected 16, 32, or 64)")
            }
            ConfigError::Invalid {
                size,
                associativity,
            } => write!(
                f,
                "{associativity} associativity is outside the Table 1 subset for a {size} cache"
            ),
            ConfigError::Parse(text) => {
                write!(
                    f,
                    "malformed cache configuration {text:?} (expected e.g. \"8KB_4W_64B\")"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_space_has_18_configurations() {
        assert_eq!(design_space().count(), DESIGN_SPACE_LEN);
    }

    #[test]
    fn design_space_matches_table_1() {
        let expected = [
            "2KB_1W_16B",
            "2KB_1W_32B",
            "2KB_1W_64B",
            "4KB_1W_16B",
            "4KB_1W_32B",
            "4KB_1W_64B",
            "4KB_2W_16B",
            "4KB_2W_32B",
            "4KB_2W_64B",
            "8KB_1W_16B",
            "8KB_1W_32B",
            "8KB_1W_64B",
            "8KB_2W_16B",
            "8KB_2W_32B",
            "8KB_2W_64B",
            "8KB_4W_16B",
            "8KB_4W_32B",
            "8KB_4W_64B",
        ];
        let actual: Vec<String> = design_space().map(|c| c.to_string()).collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn table_1_subset_rule_rejects_2kb_2way() {
        let err = CacheConfig::new(CacheSizeKb::K2, Associativity::Two, LineSize::B16);
        assert!(matches!(err, Err(ConfigError::Invalid { .. })));
    }

    #[test]
    fn table_1_subset_rule_rejects_4kb_4way() {
        let err = CacheConfig::new(CacheSizeKb::K4, Associativity::Four, LineSize::B64);
        assert!(matches!(err, Err(ConfigError::Invalid { .. })));
    }

    #[test]
    fn base_config_is_8kb_4w_64b() {
        assert_eq!(BASE_CONFIG.to_string(), "8KB_4W_64B");
        assert_eq!(BASE_CONFIG.num_sets(), 32);
        assert_eq!(BASE_CONFIG.num_lines(), 128);
    }

    #[test]
    fn parse_round_trips_every_configuration() {
        for config in design_space() {
            let text = config.to_string();
            assert_eq!(
                CacheConfig::parse(&text),
                Ok(config),
                "round trip of {text}"
            );
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "8KB",
            "8KB_4W",
            "8KB_4W_64B_extra",
            "9KB_1W_16B",
            "8KB_3W_16B",
            "8KB_4W_48B",
            "8kb_4w_64b",
        ] {
            assert!(CacheConfig::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn num_sets_is_consistent() {
        for config in design_space() {
            assert_eq!(
                config.num_sets() * config.associativity().ways() * config.line().bytes(),
                config.size().bytes(),
                "geometry of {config}"
            );
            assert!(
                config.num_sets() >= 1,
                "{config} must have at least one set"
            );
        }
    }

    #[test]
    fn nearest_size_snaps_correctly() {
        assert_eq!(CacheSizeKb::nearest(0.0), CacheSizeKb::K2);
        assert_eq!(CacheSizeKb::nearest(2.99), CacheSizeKb::K2);
        assert_eq!(CacheSizeKb::nearest(3.01), CacheSizeKb::K4);
        assert_eq!(CacheSizeKb::nearest(5.99), CacheSizeKb::K4);
        assert_eq!(CacheSizeKb::nearest(6.01), CacheSizeKb::K8);
        assert_eq!(CacheSizeKb::nearest(-5.0), CacheSizeKb::K2);
    }

    #[test]
    fn exploration_order_is_small_to_large() {
        assert_eq!(
            Associativity::Direct.next_larger(),
            Some(Associativity::Two)
        );
        assert_eq!(Associativity::Two.next_larger(), Some(Associativity::Four));
        assert_eq!(Associativity::Four.next_larger(), None);
        assert_eq!(LineSize::B16.next_larger(), Some(LineSize::B32));
        assert_eq!(LineSize::B32.next_larger(), Some(LineSize::B64));
        assert_eq!(LineSize::B64.next_larger(), None);
    }

    #[test]
    fn with_associativity_enforces_table_1() {
        let small = CacheConfig::parse("2KB_1W_16B").unwrap();
        assert!(small.with_associativity(Associativity::Two).is_err());
        let big = CacheConfig::parse("8KB_1W_16B").unwrap();
        assert_eq!(
            big.with_associativity(Associativity::Four)
                .unwrap()
                .to_string(),
            "8KB_4W_16B"
        );
    }

    #[test]
    fn design_space_index_is_stable() {
        // The closed form agrees with a scan of the design space.
        for (i, config) in design_space().enumerate() {
            assert_eq!(config.design_space_index(), i);
            assert_eq!(design_space().position(|c| c == config), Some(i));
        }
    }

    #[test]
    fn design_space_order_is_display_order() {
        // Tables indexed by design_space_index iterate in the same order
        // as a map keyed by the configuration's name.
        let mut by_name: Vec<CacheConfig> = design_space().collect();
        by_name.sort_by_key(|c| c.to_string());
        assert_eq!(by_name, design_space().collect::<Vec<_>>());
    }

    #[test]
    fn error_display_is_lowercase_and_informative() {
        let message = ConfigError::Size(7).to_string();
        assert!(message.starts_with("invalid cache size"), "{message}");
    }
}
