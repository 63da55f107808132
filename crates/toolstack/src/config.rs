//! VM configuration files: the xl config format, parsed for real.
//!
//! The toolstack's first job on `create` is "parsing the configuration
//! file that describes the VM (kernel image, virtual network/block
//! devices, etc.)" — one of the Figure 5 categories. We implement a
//! faithful subset of the xl syntax:
//!
//! ```text
//! name = "daytime-1"
//! kernel = "/images/daytime.bin"
//! memory = 4
//! vcpus = 1
//! vif = [ "bridge=xenbr0" ]
//! disk = [ "file:/images/root.img,xvda,w" ]
//! ```

use guests::GuestImage;

/// A parsed VM configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct VmConfig {
    /// Guest name (must be unique under xl).
    pub name: String,
    /// Kernel image path.
    pub kernel: String,
    /// Memory in MiB.
    pub memory_mib: u64,
    /// Virtual CPUs.
    pub vcpus: u32,
    /// Network interfaces (raw spec strings).
    pub vifs: Vec<String>,
    /// Block devices (raw spec strings).
    pub disks: Vec<String>,
}

/// Configuration parse errors with line information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// Line is not `key = value`.
    Syntax(usize),
    /// A value has the wrong type (e.g. non-numeric memory).
    BadValue(usize, String),
    /// A mandatory key is missing.
    Missing(&'static str),
    /// The same key appears twice.
    Duplicate(usize, String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Syntax(l) => write!(f, "syntax error on line {l}"),
            ConfigError::BadValue(l, k) => write!(f, "bad value for {k} on line {l}"),
            ConfigError::Missing(k) => write!(f, "missing required key {k}"),
            ConfigError::Duplicate(l, k) => write!(f, "duplicate key {k} on line {l}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl VmConfig {
    /// Builds the config a control plane would write for a guest image.
    pub fn for_image(name: &str, image: &GuestImage) -> VmConfig {
        let mut vifs = Vec::new();
        if image.needs_net {
            vifs.push("bridge=xenbr0".to_string());
        }
        let mut disks = Vec::new();
        if image.needs_block {
            disks.push(format!("file:/images/{}.img,xvda,w", image.name));
        }
        VmConfig {
            name: name.to_string(),
            kernel: format!("/images/{}.bin", image.name),
            memory_mib: image.mem_mib,
            vcpus: 1,
            vifs,
            disks,
        }
    }

    /// Serialises to the xl config syntax.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name = \"{}\"\n", self.name));
        out.push_str(&format!("kernel = \"{}\"\n", self.kernel));
        out.push_str(&format!("memory = {}\n", self.memory_mib));
        out.push_str(&format!("vcpus = {}\n", self.vcpus));
        if !self.vifs.is_empty() {
            out.push_str(&format!("vif = [ {} ]\n", quote_list(&self.vifs)));
        }
        if !self.disks.is_empty() {
            out.push_str(&format!("disk = [ {} ]\n", quote_list(&self.disks)));
        }
        out
    }

    /// Parses the xl config syntax.
    pub fn parse(text: &str) -> Result<VmConfig, ConfigError> {
        let mut name = None;
        let mut kernel = None;
        let mut memory = None;
        let mut vcpus = None;
        let mut vifs = None;
        let mut disks = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(ConfigError::Syntax(lineno))?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "name" => set_once(&mut name, parse_string(value, lineno, key)?, lineno, key)?,
                "kernel" => set_once(&mut kernel, parse_string(value, lineno, key)?, lineno, key)?,
                "memory" => set_once(&mut memory, parse_positive(value, lineno, key)?, lineno, key)?,
                "vcpus" => set_once(&mut vcpus, parse_positive(value, lineno, key)?, lineno, key)?,
                "vif" => set_once(&mut vifs, parse_list(value, lineno, key)?, lineno, key)?,
                "disk" => set_once(&mut disks, parse_list(value, lineno, key)?, lineno, key)?,
                _ => return Err(ConfigError::BadValue(lineno, key.into())),
            }
        }
        Ok(VmConfig {
            name: name.ok_or(ConfigError::Missing("name"))?,
            kernel: kernel.ok_or(ConfigError::Missing("kernel"))?,
            memory_mib: memory.ok_or(ConfigError::Missing("memory"))?,
            vcpus: vcpus.unwrap_or(1),
            vifs: vifs.unwrap_or_default(),
            disks: disks.unwrap_or_default(),
        })
    }

    /// Size in bytes of the serialised config (parse-cost accounting),
    /// computed arithmetically — byte-for-byte equal to
    /// `self.to_text().len()` without building any string.
    pub fn text_len(&self) -> usize {
        let mut len = 0;
        len += 8 + self.name.len() + 2; // name = "<name>"\n
        len += 10 + self.kernel.len() + 2; // kernel = "<kernel>"\n
        len += 9 + u64_digits(self.memory_mib) + 1; // memory = <n>\n
        len += 8 + u64_digits(self.vcpus as u64) + 1; // vcpus = <n>\n
        if !self.vifs.is_empty() {
            len += 8 + quote_list_len(&self.vifs) + 3; // vif = [ <list> ]\n
        }
        if !self.disks.is_empty() {
            len += 9 + quote_list_len(&self.disks) + 3; // disk = [ <list> ]\n
        }
        len
    }

    /// [`VmConfig::text_len`] for the config [`VmConfig::for_image`]
    /// would build, without constructing it: the create path only needs
    /// the serialised size for parse-cost accounting, so the six strings
    /// `for_image` allocates would be thrown away immediately.
    pub fn text_len_for_image(name: &str, image: &GuestImage) -> usize {
        let kernel_len = 8 + image.name.len() + 4; // /images/<img>.bin
        let mut len = 0;
        len += 8 + name.len() + 2;
        len += 10 + kernel_len + 2;
        len += 9 + u64_digits(image.mem_mib) + 1;
        len += 8 + 1 + 1; // vcpus = 1\n
        if image.needs_net {
            len += 8 + (2 + "bridge=xenbr0".len()) + 3;
        }
        if image.needs_block {
            // "file:/images/<img>.img,xvda,w" plus quotes.
            len += 9 + (2 + 13 + image.name.len() + 11) + 3;
        }
        len
    }
}

/// Decimal digit count of `n` (what `format!("{n}")` would produce).
fn u64_digits(n: u64) -> usize {
    let mut digits = 1;
    let mut v = n;
    while v >= 10 {
        digits += 1;
        v /= 10;
    }
    digits
}

/// Byte length of [`quote_list`]'s output, without building it.
fn quote_list_len(items: &[String]) -> usize {
    let quoted: usize = items.iter().map(|s| s.len() + 2).sum();
    quoted + 2 * items.len().saturating_sub(1)
}

fn quote_list(items: &[String]) -> String {
    items
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

fn set_once<T>(
    slot: &mut Option<T>,
    value: T,
    lineno: usize,
    key: &str,
) -> Result<(), ConfigError> {
    if slot.is_some() {
        return Err(ConfigError::Duplicate(lineno, key.into()));
    }
    *slot = Some(value);
    Ok(())
}

/// Parses a count that must be at least 1: a guest with no memory or
/// no vCPU cannot run.
fn parse_positive<T>(value: &str, lineno: usize, key: &str) -> Result<T, ConfigError>
where
    T: std::str::FromStr + Default + PartialEq,
{
    value
        .parse::<T>()
        .ok()
        .filter(|n| *n != T::default())
        .ok_or_else(|| ConfigError::BadValue(lineno, key.into()))
}

fn parse_string(value: &str, lineno: usize, key: &str) -> Result<String, ConfigError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(ConfigError::BadValue(lineno, key.into()))
    }
}

fn parse_list(value: &str, lineno: usize, key: &str) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    if !(v.starts_with('[') && v.ends_with(']')) {
        return Err(ConfigError::BadValue(lineno, key.into()));
    }
    let inner = v[1..v.len() - 1].trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    // Split on commas outside quotes: device specs contain commas
    // (`file:/img,xvda,w`).
    let mut items = Vec::new();
    let mut depth_quote = false;
    let mut start = 0;
    let bytes = inner.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => depth_quote = !depth_quote,
            b',' if !depth_quote => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth_quote {
        return Err(ConfigError::BadValue(lineno, key.into()));
    }
    items.push(&inner[start..]);
    items
        .into_iter()
        .map(|item| parse_string(item, lineno, key))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_text() {
        let img = GuestImage::unikernel_daytime();
        let cfg = VmConfig::for_image("daytime-7", &img);
        let parsed = VmConfig::parse(&cfg.to_text()).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn parses_the_doc_example() {
        let text = r#"
# a comment
name = "daytime-1"
kernel = "/images/daytime.bin"
memory = 4
vcpus = 1
vif = [ "bridge=xenbr0" ]
disk = [ "file:/images/root.img,xvda,w" ]
"#;
        let cfg = VmConfig::parse(text).unwrap();
        assert_eq!(cfg.name, "daytime-1");
        assert_eq!(cfg.memory_mib, 4);
        assert_eq!(cfg.vifs, vec!["bridge=xenbr0"]);
        assert_eq!(cfg.disks.len(), 1);
    }

    #[test]
    fn missing_name_is_an_error() {
        let err = VmConfig::parse("kernel = \"/k\"\nmemory = 4\n").unwrap_err();
        assert_eq!(err, ConfigError::Missing("name"));
    }

    #[test]
    fn duplicate_key_is_an_error() {
        let err = VmConfig::parse("name = \"a\"\nname = \"b\"\nkernel = \"/k\"\nmemory = 4\n")
            .unwrap_err();
        assert_eq!(err, ConfigError::Duplicate(2, "name".into()));
    }

    #[test]
    fn bad_memory_is_an_error() {
        let err =
            VmConfig::parse("name = \"a\"\nkernel = \"/k\"\nmemory = lots\n").unwrap_err();
        assert_eq!(err, ConfigError::BadValue(3, "memory".into()));
    }

    #[test]
    fn zero_memory_or_vcpus_is_an_error() {
        let err = VmConfig::parse("name = \"a\"\nkernel = \"/k\"\nmemory = 0\n").unwrap_err();
        assert_eq!(err, ConfigError::BadValue(3, "memory".into()));
        let err = VmConfig::parse("name = \"a\"\nkernel = \"/k\"\nmemory = 4\nvcpus = 0\n")
            .unwrap_err();
        assert_eq!(err, ConfigError::BadValue(4, "vcpus".into()));
    }

    #[test]
    fn unknown_key_is_an_error() {
        let err = VmConfig::parse("frobnicate = 1\n").unwrap_err();
        assert!(matches!(err, ConfigError::BadValue(1, _)));
    }

    #[test]
    fn vcpus_defaults_to_one() {
        let cfg = VmConfig::parse("name = \"a\"\nkernel = \"/k\"\nmemory = 4\n").unwrap();
        assert_eq!(cfg.vcpus, 1);
    }

    #[test]
    fn empty_list_is_ok() {
        let cfg =
            VmConfig::parse("name = \"a\"\nkernel = \"/k\"\nmemory = 4\nvif = [ ]\n").unwrap();
        assert!(cfg.vifs.is_empty());
    }

    #[test]
    fn text_len_matches_serialised_length_exactly() {
        // The charge model depends on text_len == to_text().len(); any
        // drift here silently changes Figure 5 cost accounting.
        let images = [
            GuestImage::unikernel_noop(),
            GuestImage::unikernel_daytime(),
            GuestImage::unikernel_minipython(),
            GuestImage::tinyx_noop(),
            GuestImage::debian(),
        ];
        for img in &images {
            for name in ["g", "guest-123", "a-rather-long-guest-name-0001"] {
                let cfg = VmConfig::for_image(name, img);
                assert_eq!(cfg.text_len(), cfg.to_text().len(), "{name}/{}", img.name);
                assert_eq!(
                    VmConfig::text_len_for_image(name, img),
                    cfg.to_text().len(),
                    "{name}/{}",
                    img.name
                );
            }
        }
    }

    #[test]
    fn guests_without_net_get_no_vif() {
        let cfg = VmConfig::for_image("n", &GuestImage::unikernel_noop());
        assert!(cfg.vifs.is_empty());
        assert!(cfg.disks.is_empty());
        let cfg = VmConfig::for_image("d", &GuestImage::debian());
        assert_eq!(cfg.vifs.len(), 1);
        assert_eq!(cfg.disks.len(), 1);
    }
}
