//! `protodb`-style static registry facts (§3.1.3, §3.3).

/// Static registry summary.
#[derive(Debug, Clone, Copy)]
pub struct Registry {
    /// Fraction of serialized/deserialized *bytes* defined in proto2
    /// (0.96 in §3.3).
    pub proto2_bytes_fraction: f64,
    /// Fraction of repeated scalar fields declared `packed`.
    pub packed_fraction: f64,
    /// Average fraction of defined fields populated in observed messages
    /// (§3.9: over 90% of messages populate fewer than 52% of their fields).
    pub mean_populated_fraction: f64,
}

impl Registry {
    /// The 2021 Google-fleet parameterization.
    pub fn google_2021() -> Self {
        Registry {
            proto2_bytes_fraction: 0.96,
            packed_fraction: 0.55,
            mean_populated_fraction: 0.52,
        }
    }
}

/// Static per-schema statistics, as `protodb` exposes for every `.proto`
/// file in the codebase (§3.1.3: "the version of the protobufs language a
/// message is defined against, whether repeated fields are packed, and the
/// range of field numbers defined in a message").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemaStats {
    /// Message types defined.
    pub message_types: usize,
    /// Total fields across all types.
    pub fields: usize,
    /// Repeated fields.
    pub repeated_fields: usize,
    /// Repeated fields declared `packed`.
    pub packed_fields: usize,
    /// Sub-message fields.
    pub submessage_fields: usize,
    /// Largest field-number span of any type (sizes the widest ADT entry
    /// region and hasbits array).
    pub max_field_number_span: usize,
    /// Mean static density: defined fields / field-number span, averaged
    /// over types (an upper bound on the Figure 7 dynamic density).
    pub mean_static_density: f64,
}

/// Computes `protodb`-style statistics for a schema.
pub fn analyze_schema(schema: &protoacc_schema::Schema) -> SchemaStats {
    let mut stats = SchemaStats {
        message_types: schema.len(),
        fields: 0,
        repeated_fields: 0,
        packed_fields: 0,
        submessage_fields: 0,
        max_field_number_span: 0,
        mean_static_density: 0.0,
    };
    let mut density_sum = 0.0;
    for (_, m) in schema.iter() {
        stats.fields += m.fields().len();
        for f in m.fields() {
            if f.is_repeated() {
                stats.repeated_fields += 1;
            }
            if f.is_packed() {
                stats.packed_fields += 1;
            }
            if f.field_type().is_message() {
                stats.submessage_fields += 1;
            }
        }
        let span = m.field_number_span();
        stats.max_field_number_span = stats.max_field_number_span.max(span);
        if span > 0 {
            density_sum += m.fields().len() as f64 / span as f64;
        }
    }
    if stats.message_types > 0 {
        stats.mean_static_density = density_sum / stats.message_types as f64;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proto2_dominates() {
        let r = Registry::google_2021();
        assert!((r.proto2_bytes_fraction - 0.96).abs() < 1e-9);
    }

    #[test]
    fn analyze_schema_counts_structure() {
        use protoacc_schema::{FieldType, SchemaBuilder};
        let mut b = SchemaBuilder::new();
        let inner = b.declare("Inner");
        b.message(inner).optional("x", FieldType::Bool, 1);
        let outer = b.declare("Outer");
        b.message(outer)
            .optional("a", FieldType::Int32, 1)
            .packed("p", FieldType::Int64, 5)
            .repeated("r", FieldType::String, 7)
            .optional("s", FieldType::Message(inner), 20);
        let schema = b.build().unwrap();
        let stats = analyze_schema(&schema);
        assert_eq!(stats.message_types, 2);
        assert_eq!(stats.fields, 5);
        assert_eq!(stats.repeated_fields, 2);
        assert_eq!(stats.packed_fields, 1);
        assert_eq!(stats.submessage_fields, 1);
        assert_eq!(stats.max_field_number_span, 20);
        // Inner density 1.0, Outer density 4/20 = 0.2 -> mean 0.6.
        assert!((stats.mean_static_density - 0.6).abs() < 1e-9);
    }

    #[test]
    fn analyze_empty_schema() {
        let schema = protoacc_schema::Schema::new();
        let stats = analyze_schema(&schema);
        assert_eq!(stats.message_types, 0);
        assert_eq!(stats.mean_static_density, 0.0);
    }
}
