//! Presence tracking: sparse hasbits.
//!
//! Upstream protoc packs hasbits densely (one bit per *declared* field, in
//! declaration order). The paper modifies this to a sparse representation the
//! accelerator can index directly by `field_number - min_field` (Section
//! 4.2), trading extra bits of storage for the removal of a mapping-table
//! read per field. Section 3.7 quantifies the trade-off, which
//! [`interface_cost`] models.

use protoacc_mem::GuestMemory;

use crate::MessageLayout;

/// Sets or clears the sparse hasbit of `field_number` in the object at
/// `object_addr`, as the deserializer's hasbits-writer unit does
/// (Section 4.4.4).
pub fn write_sparse(
    mem: &mut GuestMemory,
    layout: &MessageLayout,
    object_addr: u64,
    field_number: u32,
    present: bool,
) {
    let (byte, bit) = layout.hasbit_position(field_number);
    let addr = object_addr + layout.hasbits_offset() + byte;
    let old = mem.read_u8(addr);
    let new = if present {
        old | (1 << bit)
    } else {
        old & !(1 << bit)
    };
    mem.write_u8(addr, new);
}

/// Reads the sparse hasbit of `field_number`.
pub fn read_sparse(
    mem: &GuestMemory,
    layout: &MessageLayout,
    object_addr: u64,
    field_number: u32,
) -> bool {
    let (byte, bit) = layout.hasbit_position(field_number);
    let addr = object_addr + layout.hasbits_offset() + byte;
    mem.read_u8(addr) & (1 << bit) != 0
}

/// Iterator over the present field numbers of an object, scanning the sparse
/// hasbits array bit-by-bit exactly like the serializer frontend
/// (Section 4.5.3).
pub fn present_fields(mem: &GuestMemory, layout: &MessageLayout, object_addr: u64) -> Vec<u32> {
    let mut present = Vec::new();
    if layout.max_field() < layout.min_field() {
        return present;
    }
    // Only defined numbers can have their hasbit set, so walking the
    // layout's slots visits the same bits the hardware's span scan would,
    // without touching the (possibly half-billion-slot) gaps.
    for number in layout.field_numbers() {
        if read_sparse(mem, layout, object_addr, number) {
            present.push(number);
        }
    }
    present
}

/// Programming-interface cost model of Section 3.7: bits of table state
/// written/read per message instance under the two designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterfaceCost {
    /// Prior work (Optimus Prime-style): 64 bits written per present field
    /// to build per-instance schema tables.
    pub prior_work_bits: u64,
    /// This design: one bit read per field number in the defined range.
    pub protoacc_bits: u64,
}

/// Computes the Section 3.7 cost comparison for a message instance.
///
/// `present` is the number of populated fields; `span` the defined
/// field-number range. protoacc wins whenever density `present/span`
/// exceeds 1/64.
pub fn interface_cost(present: u64, span: u64) -> InterfaceCost {
    InterfaceCost {
        prior_work_bits: present * 64,
        protoacc_bits: span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MessageLayouts;
    use protoacc_schema::{FieldType, SchemaBuilder};

    fn setup() -> (
        protoacc_schema::Schema,
        MessageLayouts,
        protoacc_schema::MessageId,
    ) {
        let mut b = SchemaBuilder::new();
        let id = b.define("M", |m| {
            m.optional("a", FieldType::Bool, 2)
                .optional("b", FieldType::Int32, 5)
                .optional("c", FieldType::Int64, 17);
        });
        let schema = b.build().unwrap();
        let layouts = MessageLayouts::compute(&schema);
        (schema, layouts, id)
    }

    #[test]
    fn sparse_bits_round_trip() {
        let (_, layouts, id) = setup();
        let layout = layouts.layout(id);
        let mut mem = GuestMemory::new();
        let obj = 0x1000;
        for n in [2u32, 5, 17] {
            assert!(!read_sparse(&mem, layout, obj, n));
            write_sparse(&mut mem, layout, obj, n, true);
            assert!(read_sparse(&mem, layout, obj, n));
        }
        write_sparse(&mut mem, layout, obj, 5, false);
        assert!(!read_sparse(&mem, layout, obj, 5));
        assert!(read_sparse(&mem, layout, obj, 2));
        assert!(read_sparse(&mem, layout, obj, 17));
    }

    #[test]
    fn present_fields_scans_in_order() {
        let (_, layouts, id) = setup();
        let layout = layouts.layout(id);
        let mut mem = GuestMemory::new();
        let obj = 0x2000;
        write_sparse(&mut mem, layout, obj, 17, true);
        write_sparse(&mut mem, layout, obj, 2, true);
        assert_eq!(present_fields(&mem, layout, obj), vec![2, 17]);
    }

    #[test]
    fn section_3_7_crossover() {
        // Density exactly 1/64: costs tie. Above: protoacc wins.
        let tie = interface_cost(1, 64);
        assert_eq!(tie.prior_work_bits, tie.protoacc_bits);
        let sparse_win = interface_cost(2, 64);
        assert!(sparse_win.prior_work_bits > sparse_win.protoacc_bits);
        let dense_win = interface_cost(1, 128);
        assert!(dense_win.prior_work_bits < dense_win.protoacc_bits);
    }
}
