//! The VirusTotal file-type taxonomy used throughout the study.
//!
//! Table 3 of the paper lists the top-20 file types (78–87% of all
//! samples), a `NULL` type (9.6%), and a long tail of "Others" reaching
//! 351 distinct types. We model the top 20 as named variants, `NULL`
//! explicitly, and the tail as `Other(k)` with `k < OTHER_TYPE_COUNT`
//! so the full taxonomy has exactly 351 types like the dataset.
//!
//! §5.4.3 groups Win32 EXE / Win32 DLL / Win64 EXE / Win64 DLL as "PE
//! files"; [`FileType::is_pe`] encodes that grouping.

use core::fmt;

/// Number of anonymous tail types, chosen so the total taxonomy size is
/// 351 (20 named + NULL + 330 others), matching the dataset.
pub const OTHER_TYPE_COUNT: u16 = 330;

/// Total number of distinct file types (matches the paper's 351).
pub const TOTAL_TYPE_COUNT: usize = 20 + 1 + OTHER_TYPE_COUNT as usize;

/// A VirusTotal file type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum FileType {
    /// 32-bit Windows executable — the most common type (25.2% of samples).
    Win32Exe,
    /// Plain text.
    Txt,
    /// HTML document.
    Html,
    /// ZIP archive.
    Zip,
    /// PDF document.
    Pdf,
    /// XML document.
    Xml,
    /// 32-bit Windows dynamic library.
    Win32Dll,
    /// JSON document.
    Json,
    /// Android Dalvik executable.
    Dex,
    /// ELF executable.
    ElfExecutable,
    /// 64-bit Windows executable.
    Win64Exe,
    /// 64-bit Windows dynamic library.
    Win64Dll,
    /// ELF shared library.
    ElfSharedLib,
    /// EPUB e-book.
    Epub,
    /// Windows shell link.
    Lnk,
    /// FlashPix image.
    Fpx,
    /// PHP source.
    Php,
    /// Office Open XML document.
    Docx,
    /// GZIP archive.
    Gzip,
    /// JPEG image.
    Jpeg,
    /// VT could not determine a type ("NULL" in Table 3).
    Null,
    /// One of the 330 long-tail types.
    Other(u16),
}

impl FileType {
    /// The top-20 file types of Table 3, in the table's order.
    pub const TOP20: [FileType; 20] = [
        FileType::Win32Exe,
        FileType::Txt,
        FileType::Html,
        FileType::Zip,
        FileType::Pdf,
        FileType::Xml,
        FileType::Win32Dll,
        FileType::Json,
        FileType::Dex,
        FileType::ElfExecutable,
        FileType::Win64Exe,
        FileType::Win64Dll,
        FileType::ElfSharedLib,
        FileType::Epub,
        FileType::Lnk,
        FileType::Fpx,
        FileType::Php,
        FileType::Docx,
        FileType::Gzip,
        FileType::Jpeg,
    ];

    /// True for the PE grouping of §5.4.3 (Win32/64 EXE/DLL).
    pub fn is_pe(self) -> bool {
        matches!(
            self,
            FileType::Win32Exe | FileType::Win32Dll | FileType::Win64Exe | FileType::Win64Dll
        )
    }

    /// True for the named top-20 types.
    pub fn is_top20(self) -> bool {
        !matches!(self, FileType::Null | FileType::Other(_))
    }

    /// A dense index: top-20 → 0..20, NULL → 20, Other(k) → 21+k.
    /// Useful for array-indexed per-type accumulators.
    #[inline]
    pub fn dense_index(self) -> usize {
        match self {
            FileType::Win32Exe => 0,
            FileType::Txt => 1,
            FileType::Html => 2,
            FileType::Zip => 3,
            FileType::Pdf => 4,
            FileType::Xml => 5,
            FileType::Win32Dll => 6,
            FileType::Json => 7,
            FileType::Dex => 8,
            FileType::ElfExecutable => 9,
            FileType::Win64Exe => 10,
            FileType::Win64Dll => 11,
            FileType::ElfSharedLib => 12,
            FileType::Epub => 13,
            FileType::Lnk => 14,
            FileType::Fpx => 15,
            FileType::Php => 16,
            FileType::Docx => 17,
            FileType::Gzip => 18,
            FileType::Jpeg => 19,
            FileType::Null => 20,
            FileType::Other(k) => 21 + k as usize,
        }
    }

    /// Inverse of [`FileType::dense_index`].
    ///
    /// # Panics
    /// Panics if `idx >= TOTAL_TYPE_COUNT`.
    #[inline]
    pub fn from_dense_index(idx: usize) -> Self {
        match idx {
            0..=19 => Self::TOP20[idx],
            20 => FileType::Null,
            _ => {
                let k = idx - 21;
                assert!(
                    k < OTHER_TYPE_COUNT as usize,
                    "type index out of range: {idx}"
                );
                FileType::Other(k as u16)
            }
        }
    }

    /// Display name matching Table 3's spelling.
    pub fn name(self) -> String {
        match self {
            FileType::Win32Exe => "Win32 EXE".into(),
            FileType::Txt => "TXT".into(),
            FileType::Html => "HTML".into(),
            FileType::Zip => "ZIP".into(),
            FileType::Pdf => "PDF".into(),
            FileType::Xml => "XML".into(),
            FileType::Win32Dll => "Win32 DLL".into(),
            FileType::Json => "JSON".into(),
            FileType::Dex => "DEX".into(),
            FileType::ElfExecutable => "ELF executable".into(),
            FileType::Win64Exe => "Win64 EXE".into(),
            FileType::Win64Dll => "Win64 DLL".into(),
            FileType::ElfSharedLib => "ELF shared library".into(),
            FileType::Epub => "EPUB".into(),
            FileType::Lnk => "LNK".into(),
            FileType::Fpx => "FPX".into(),
            FileType::Php => "PHP".into(),
            FileType::Docx => "DOCX".into(),
            FileType::Gzip => "GZIP".into(),
            FileType::Jpeg => "JPEG".into(),
            FileType::Null => "NULL".into(),
            FileType::Other(k) => format!("Other#{k:03}"),
        }
    }

    /// Sample-share weights from Table 3 (column "% Samples"), used by the
    /// simulator's population generator. Returned as parts-per-million of
    /// the whole population; the `Other` share is spread over the tail
    /// with a Zipf-ish decay by the caller.
    pub fn sample_share_ppm(self) -> u32 {
        match self {
            FileType::Win32Exe => 252_139,
            FileType::Txt => 128_777,
            FileType::Html => 97_600,
            FileType::Zip => 55_398,
            FileType::Pdf => 39_489,
            FileType::Xml => 38_589,
            FileType::Win32Dll => 27_766,
            FileType::Json => 25_284,
            FileType::Dex => 22_345,
            FileType::ElfExecutable => 19_266,
            FileType::Win64Exe => 14_529,
            FileType::Win64Dll => 11_879,
            FileType::ElfSharedLib => 10_139,
            FileType::Epub => 9_268,
            FileType::Lnk => 8_612,
            FileType::Fpx => 7_643,
            FileType::Php => 6_959,
            FileType::Docx => 3_792,
            FileType::Gzip => 3_790,
            FileType::Jpeg => 3_547,
            FileType::Null => 96_048,
            // Remainder to 1_000_000, spread across the tail by the
            // population generator (117_141 ppm total).
            FileType::Other(_) => 0,
        }
    }

    /// Total `Other` share in ppm (Table 3's "Others" row: 11.7140%).
    pub const OTHER_SHARE_PPM: u32 = 117_141;
}

impl fmt::Display for FileType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_grouping() {
        assert!(FileType::Win32Exe.is_pe());
        assert!(FileType::Win32Dll.is_pe());
        assert!(FileType::Win64Exe.is_pe());
        assert!(FileType::Win64Dll.is_pe());
        assert!(!FileType::Pdf.is_pe());
        assert!(!FileType::ElfExecutable.is_pe());
        assert!(!FileType::Other(3).is_pe());
    }

    #[test]
    fn dense_index_roundtrip() {
        for idx in 0..TOTAL_TYPE_COUNT {
            let t = FileType::from_dense_index(idx);
            assert_eq!(t.dense_index(), idx);
        }
    }

    #[test]
    fn taxonomy_size_is_351() {
        assert_eq!(TOTAL_TYPE_COUNT, 351);
    }

    #[test]
    fn top20_are_top20() {
        assert_eq!(FileType::TOP20.len(), 20);
        for t in FileType::TOP20 {
            assert!(t.is_top20());
        }
        assert!(!FileType::Null.is_top20());
        assert!(!FileType::Other(0).is_top20());
    }

    #[test]
    fn shares_sum_to_a_million() {
        let named: u32 = FileType::TOP20
            .iter()
            .map(|t| t.sample_share_ppm())
            .sum::<u32>()
            + FileType::Null.sample_share_ppm();
        assert_eq!(named + FileType::OTHER_SHARE_PPM, 1_000_000);
    }

    #[test]
    fn names_match_table3() {
        assert_eq!(FileType::Win32Exe.name(), "Win32 EXE");
        assert_eq!(FileType::ElfSharedLib.name(), "ELF shared library");
        assert_eq!(FileType::Null.name(), "NULL");
    }
}
