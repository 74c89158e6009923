//! Module loading: lay out global data in simulated memory, together with
//! a permission map over the layout.
//!
//! The map keeps the null page and a red-zone after every global unmapped,
//! marks read-only globals as such, and leaves a large unmapped gap between
//! the data segment and the stack, so that wild loads and stores fault at a
//! precise address instead of silently reading zeros or corrupting a
//! neighbouring object.

use std::collections::HashMap;

use wm_ir::{GlobalKind, Module, SymId, Width};

use crate::machine::SimError;

/// Base address of the first global (addresses below are kept unmapped so
/// null-pointer bugs fault).
pub const DATA_BASE: i64 = 0x1000;

/// Unmapped red-zone after every global, so small out-of-bounds offsets
/// fault instead of landing in the next object.
pub const GUARD_SIZE: i64 = 32;

/// A mapped, permission-tagged address range `start..end`.
#[derive(Debug, Clone, PartialEq)]
pub struct MapRegion {
    /// First mapped address.
    pub start: i64,
    /// One past the last mapped address.
    pub end: i64,
    /// Whether stores are allowed.
    pub writable: bool,
    /// Human-readable name used in fault reports ("global \`u\`", "stack").
    pub label: String,
}

/// Why an access was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// No region maps the accessed range.
    Unmapped,
    /// The region is mapped but not writable.
    ReadOnly,
}

/// A refused memory access: what was attempted and where the address lies
/// relative to the mapped regions.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessError {
    /// Faulting address.
    pub addr: i64,
    /// Access size in bytes.
    pub len: i64,
    /// True for stores, false for loads.
    pub write: bool,
    /// Protection violation class.
    pub kind: AccessKind,
    /// Description of the address relative to the memory map.
    pub context: String,
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = if self.write { "store" } else { "load" };
        let kind = match self.kind {
            AccessKind::Unmapped => "unmapped address",
            AccessKind::ReadOnly => "read-only memory",
        };
        write!(
            f,
            "{dir} of {} byte(s) at {:#x}: {kind} ({})",
            self.len, self.addr, self.context
        )
    }
}

impl std::error::Error for AccessError {}

/// Granule the stack's backing store grows by. A machine touches only
/// the top few KiB of its stack region, so the image backs the stack
/// lazily instead of zero-filling `memory_size` bytes up front.
const STACK_STEP: usize = 4096;

/// A loaded memory image: global data placed at fixed addresses with guard
/// red-zones between objects, the stack at the top, and everything else
/// unmapped.
///
/// Only the mapped regions have backing store: the data segment is sized
/// to the globals, and the stack grows downward from the top of memory on
/// first write. [`MemoryImage::check`] proves that every successful access
/// lies inside one region, so no access can reach memory that has no
/// backing; stack bytes that were never written read as zero.
#[derive(Debug, Clone)]
pub struct MemoryImage {
    /// Backing store of `[DATA_BASE, DATA_BASE + data.len())`, which covers
    /// every global.
    data: Vec<u8>,
    /// Backing store of the top `stack.len()` bytes of memory, the part of
    /// the stack region written so far.
    stack: Vec<u8>,
    /// First address of the stack region.
    stack_base: i64,
    /// Simulated memory size in bytes; addresses at or above it are
    /// outside simulated memory.
    size: i64,
    /// Address of each data symbol.
    pub addresses: HashMap<SymId, i64>,
    /// Initial stack pointer (top of memory, 16-byte aligned, minus slack).
    pub initial_sp: i64,
    /// Mapped regions, sorted by start address.
    regions: Vec<MapRegion>,
    /// Index of the region that satisfied the last permission check — a
    /// one-entry cache. Scalar references and stream cursors have strong
    /// spatial locality, so most checks re-hit the same region and skip
    /// the binary search.
    last_region: std::cell::Cell<usize>,
}

impl MemoryImage {
    /// Lay out `module`'s globals in `size` bytes of memory.
    ///
    /// Returns [`SimError::BadProgram`] when the data segment would collide
    /// with the stack region reserved at the top of memory.
    pub fn new(module: &Module, size: usize) -> Result<MemoryImage, SimError> {
        let mut data: Vec<u8> = Vec::new();
        let mut addresses = HashMap::new();
        let mut regions: Vec<MapRegion> = Vec::new();
        let initial_sp = (size as i64 - 64) & !15;
        let stack_base = (size as i64 - (size as i64 / 4).min(4 << 20)) & !15;
        let mut cursor = DATA_BASE;
        for (i, g) in module.globals.iter().enumerate() {
            if let GlobalKind::Data {
                size: gsize,
                align,
                init,
            } = &g.kind
            {
                let align = (*align).max(1) as i64;
                cursor = (cursor + align - 1) / align * align;
                let addr = cursor;
                let end = addr + *gsize as i64;
                if end > stack_base {
                    return Err(SimError::BadProgram(format!(
                        "global data does not fit in simulated memory: \
                         global `{}` would end at {:#x}, past the stack \
                         region starting at {:#x} (memory_size = {size})",
                        g.name, end, stack_base
                    )));
                }
                let off = (addr - DATA_BASE) as usize;
                let backed = ((end - DATA_BASE) as usize).max(off + init.len());
                if data.len() < backed {
                    data.resize(backed, 0);
                }
                data[off..off + init.len()].copy_from_slice(init);
                addresses.insert(SymId(i as u32), addr);
                regions.push(MapRegion {
                    start: addr,
                    end,
                    writable: !g.readonly,
                    label: format!("global `{}`", g.name),
                });
                cursor = end + GUARD_SIZE;
            }
        }
        regions.push(MapRegion {
            start: stack_base,
            end: size as i64,
            writable: true,
            label: "stack".to_string(),
        });
        Ok(MemoryImage {
            data,
            stack: Vec::new(),
            stack_base,
            size: size as i64,
            addresses,
            initial_sp,
            regions,
            last_region: std::cell::Cell::new(usize::MAX),
        })
    }

    /// The mapped regions, sorted by start address.
    pub fn regions(&self) -> &[MapRegion] {
        &self.regions
    }

    /// The region containing `addr`, if any.
    pub fn region_of(&self, addr: i64) -> Option<&MapRegion> {
        self.region_index_of(addr).map(|i| &self.regions[i])
    }

    /// Index of the region containing `addr`, by binary search.
    fn region_index_of(&self, addr: i64) -> Option<usize> {
        let idx = self.regions.partition_point(|r| r.start <= addr);
        let i = idx.checked_sub(1)?;
        (addr < self.regions[i].end).then_some(i)
    }

    /// Check that `len` bytes at `addr` may be accessed (written, when
    /// `write` is set). On refusal, the error names the nearest region.
    pub fn check(&self, addr: i64, len: i64, write: bool) -> Result<(), AccessError> {
        // one-entry region cache: a hit answers without the binary search
        if let Some(r) = self.regions.get(self.last_region.get()) {
            if addr >= r.start && addr + len <= r.end {
                if write && !r.writable {
                    return Err(AccessError {
                        addr,
                        len,
                        write,
                        kind: AccessKind::ReadOnly,
                        context: format!("{} is read-only", r.label),
                    });
                }
                return Ok(());
            }
        }
        if let Some(i) = self.region_index_of(addr) {
            self.last_region.set(i);
            let r = &self.regions[i];
            if addr + len <= r.end {
                if write && !r.writable {
                    return Err(AccessError {
                        addr,
                        len,
                        write,
                        kind: AccessKind::ReadOnly,
                        context: format!("{} is read-only", r.label),
                    });
                }
                return Ok(());
            }
            return Err(AccessError {
                addr,
                len,
                write,
                kind: AccessKind::Unmapped,
                context: format!(
                    "runs {} byte(s) off the end of {}",
                    addr + len - r.end,
                    r.label
                ),
            });
        }
        Err(AccessError {
            addr,
            len,
            write,
            kind: AccessKind::Unmapped,
            context: self.describe_unmapped(addr),
        })
    }

    /// Where an unmapped address lies, for fault reports.
    fn describe_unmapped(&self, addr: i64) -> String {
        if addr < 0 || addr >= self.size {
            return "outside simulated memory".to_string();
        }
        if addr < DATA_BASE {
            return "in the null page below the data segment".to_string();
        }
        let idx = self.regions.partition_point(|r| r.start <= addr);
        match idx.checked_sub(1).map(|i| &self.regions[i]) {
            Some(r) => {
                let off = addr - r.end;
                if off < GUARD_SIZE {
                    format!("{off} byte(s) past {} (guard red-zone)", r.label)
                } else {
                    format!(
                        "{off} byte(s) past {}, in the unmapped gap below the stack",
                        r.label
                    )
                }
            }
            None => "in the unmapped gap below the stack".to_string(),
        }
    }

    /// Lowest address the stack's backing store covers.
    fn stack_low(&self) -> i64 {
        self.size - self.stack.len() as i64
    }

    /// Copy the bytes at `addr` into `buf`. The caller has checked that
    /// the range lies inside one mapped region.
    fn load(&self, addr: i64, buf: &mut [u8]) {
        if addr < self.stack_base {
            let off = (addr - DATA_BASE) as usize;
            buf.copy_from_slice(&self.data[off..off + buf.len()]);
            return;
        }
        let low = self.stack_low();
        if addr >= low {
            let off = (addr - low) as usize;
            buf.copy_from_slice(&self.stack[off..off + buf.len()]);
        } else {
            // at least partly below the stack's backing store: the
            // program never wrote those bytes, so they read as zero
            for (b, a) in buf.iter_mut().zip(addr..) {
                *b = if a >= low {
                    self.stack[(a - low) as usize]
                } else {
                    0
                };
            }
        }
    }

    /// Copy `bytes` to `addr`, growing the stack's backing store down to
    /// cover it. The caller has checked that the range lies inside one
    /// mapped region.
    fn store(&mut self, addr: i64, bytes: &[u8]) {
        if addr < self.stack_base {
            let off = (addr - DATA_BASE) as usize;
            self.data[off..off + bytes.len()].copy_from_slice(bytes);
            return;
        }
        // bytes from `addr` to the top of memory; never more than the
        // stack region holds, since `addr >= stack_base`
        let need = (self.size - addr) as usize;
        if need > self.stack.len() {
            let span = (self.size - self.stack_base) as usize;
            let len = need
                .next_multiple_of(STACK_STEP)
                .max(2 * self.stack.len())
                .min(span);
            let mut grown = vec![0u8; len];
            grown[len - self.stack.len()..].copy_from_slice(&self.stack);
            self.stack = grown;
        }
        let off = self.stack.len() - need;
        self.stack[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Read `width` bytes at `addr` as a sign/zero-extended integer.
    pub fn read_int(&self, addr: i64, width: Width) -> Result<i64, AccessError> {
        self.check(addr, width.bytes(), false)?;
        let mut b = [0u8; 8];
        self.load(addr, &mut b[..width.bytes() as usize]);
        Ok(match width {
            Width::B1 => b[0] as i64,
            Width::W4 => i32::from_le_bytes([b[0], b[1], b[2], b[3]]) as i64,
            Width::D8 => i64::from_le_bytes(b),
        })
    }

    /// Read a double at `addr`.
    pub fn read_flt(&self, addr: i64) -> Result<f64, AccessError> {
        self.check(addr, 8, false)?;
        let mut b = [0u8; 8];
        self.load(addr, &mut b);
        Ok(f64::from_le_bytes(b))
    }

    /// Write an integer of `width` bytes.
    pub fn write_int(&mut self, addr: i64, width: Width, v: i64) -> Result<(), AccessError> {
        self.check(addr, width.bytes(), true)?;
        match width {
            Width::B1 => self.store(addr, &[v as u8]),
            Width::W4 => self.store(addr, &(v as i32).to_le_bytes()),
            Width::D8 => self.store(addr, &v.to_le_bytes()),
        }
        Ok(())
    }

    /// Write a double.
    pub fn write_flt(&mut self, addr: i64, v: f64) -> Result<(), AccessError> {
        self.check(addr, 8, true)?;
        self.store(addr, &v.to_le_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::Width;

    #[test]
    fn layout_respects_alignment_and_inits() {
        let mut m = Module::new();
        let a = m.add_data("a", 3, 1, vec![1, 2, 3]);
        let b = m.add_data("b", 16, 8, vec![]);
        let img = MemoryImage::new(&m, 1 << 20).unwrap();
        let aa = img.addresses[&a];
        let ba = img.addresses[&b];
        assert_eq!(aa, DATA_BASE);
        assert_eq!(ba % 8, 0);
        assert!(ba >= aa + 3 + GUARD_SIZE, "guard red-zone between globals");
        assert_eq!(img.read_int(aa, Width::B1), Ok(1));
        assert_eq!(img.read_int(aa + 2, Width::B1), Ok(3));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = Module::new();
        let g = m.add_data("g", 16, 8, vec![]);
        let mut img = MemoryImage::new(&m, 1 << 16).unwrap();
        let ga = img.addresses[&g];
        assert!(img.write_int(ga, Width::W4, -5).is_ok());
        assert_eq!(img.read_int(ga, Width::W4), Ok(-5));
        assert!(img.write_flt(ga + 8, 2.5).is_ok());
        assert_eq!(img.read_flt(ga + 8), Ok(2.5));
        // out of simulated memory entirely
        assert!(img.write_int(1 << 20, Width::W4, 0).is_err());
        assert!(img.read_int(-4, Width::W4).is_err());
        assert!(img.read_int((1 << 16) - 2, Width::W4).is_err());
    }

    #[test]
    fn guard_red_zone_and_null_page_fault() {
        let mut m = Module::new();
        let g = m.add_data("g", 8, 8, vec![]);
        let img = MemoryImage::new(&m, 1 << 16).unwrap();
        let ga = img.addresses[&g];
        // one past the end: guard red-zone
        let err = img.read_int(ga + 8, Width::W4).unwrap_err();
        assert_eq!(err.kind, AccessKind::Unmapped);
        assert!(err.context.contains("guard red-zone"), "{}", err.context);
        // straddling the end of the object
        let err = img.read_int(ga + 6, Width::W4).unwrap_err();
        assert!(err.context.contains("off the end of global `g`"));
        // the null page
        let err = img.read_int(0, Width::D8).unwrap_err();
        assert!(err.context.contains("null page"), "{}", err.context);
    }

    #[test]
    fn readonly_globals_refuse_stores() {
        let mut m = Module::new();
        let t = m.add_rodata("tab", 8, 8, vec![7; 8]);
        let mut img = MemoryImage::new(&m, 1 << 16).unwrap();
        let ta = img.addresses[&t];
        assert_eq!(img.read_int(ta, Width::B1), Ok(7));
        let err = img.write_int(ta, Width::W4, 0).unwrap_err();
        assert_eq!(err.kind, AccessKind::ReadOnly);
        assert!(err.context.contains("tab"), "{}", err.context);
    }

    #[test]
    fn oversized_data_is_a_bad_program_not_a_panic() {
        let mut m = Module::new();
        m.add_data("huge", 1 << 20, 8, vec![]);
        match MemoryImage::new(&m, 1 << 16) {
            Err(SimError::BadProgram(msg)) => {
                assert!(msg.contains("does not fit"), "{msg}")
            }
            other => panic!("expected BadProgram, got {other:?}"),
        }
    }

    #[test]
    fn stack_pointer_is_aligned_and_mapped() {
        let m = Module::new();
        let img = MemoryImage::new(&m, 1 << 16).unwrap();
        assert_eq!(img.initial_sp % 16, 0);
        assert!(img.initial_sp < (1 << 16));
        assert!(img.check(img.initial_sp - 8, 8, true).is_ok());
        let r = img.region_of(img.initial_sp).unwrap();
        assert_eq!(r.label, "stack");
    }

    #[test]
    fn stack_is_backed_on_first_write() {
        // one size that is a multiple of the growth step, one that is not
        for size in [1usize << 20, (1 << 20) + 12_345] {
            let mut img = MemoryImage::new(&Module::new(), size).unwrap();
            let top = size as i64;
            let stack = img.regions().last().unwrap().clone();
            assert_eq!((stack.label.as_str(), stack.end), ("stack", top));
            let base = stack.start;
            // stack the program never wrote reads as zero, without backing
            for a in [base, img.initial_sp - 8, top - 8] {
                assert_eq!(img.read_int(a, Width::D8), Ok(0), "{size}: {a:#x}");
            }
            assert!(img.stack.is_empty(), "{size}: a read allocated");
            // write and read back at both ends of the stack region
            for (a, v) in [(img.initial_sp - 8, -7), (base, 42), (top - 8, 9)] {
                assert_eq!(img.write_int(a, Width::D8, v), Ok(()), "{size}: {a:#x}");
                assert_eq!(img.read_int(a, Width::D8), Ok(v), "{size}: {a:#x}");
            }
            assert_eq!(img.read_int(top - 4, Width::W4), Ok(0), "{size}");
            assert!(img.write_flt(top - 8, 2.5).is_ok());
            assert_eq!(img.read_flt(top - 8), Ok(2.5));
            // one byte further is outside simulated memory
            let err = img.write_int(top - 7, Width::D8, 0).unwrap_err();
            assert!(err.context.contains("off the end of stack"), "{err}");
            for a in [top, top + 8] {
                let err = img.read_int(a, Width::D8).unwrap_err();
                assert_eq!(err.context, "outside simulated memory", "{size}");
            }
            // below the stack region is the unmapped gap
            let err = img.write_int(base - 8, Width::D8, 0).unwrap_err();
            assert!(err.context.contains("gap below the stack"), "{err}");
        }
    }

    #[test]
    fn accesses_straddling_the_stack_backing_read_the_unwritten_part_as_zero() {
        let size = (1 << 20) + 3;
        let mut img = MemoryImage::new(&Module::new(), size).unwrap();
        img.write_int(size as i64 - 8, Width::B1, 1).unwrap();
        let low = img.stack_low();
        assert!(low > img.regions().last().unwrap().start);
        img.write_int(low, Width::W4, 0x0102_0304).unwrap();
        assert_eq!(img.stack_low(), low, "a write inside the backing grew it");
        // two unwritten bytes below `low`, two written ones above it
        assert_eq!(img.read_int(low - 2, Width::W4), Ok(0x0304_0000));
        img.write_int(low - 2, Width::W4, -1).unwrap();
        assert!(img.stack_low() < low);
        assert_eq!(img.read_int(low - 2, Width::W4), Ok(-1));
        assert_eq!(img.read_int(low + 2, Width::B1), Ok(2));
        assert_eq!(img.read_int(size as i64 - 8, Width::B1), Ok(1));
    }
}
