//! The differential oracle: every codec in the workspace judged on the same
//! bytes.
//!
//! The paper's accelerator is a drop-in replacement for the software
//! protobuf library (§4.4–4.5): it must accept the same bytes, reject the
//! same bytes and serialize byte-identically. Four codecs implement that
//! contract here — the accelerator model (`protoacc`), `crates/cpu`'s
//! instrumented codec, the native fast path (`protoacc-fastpath`) and the
//! value-tree reference (`protoacc_runtime::reference`) — and [`Oracle`]
//! holds them to it on every input, hostile ones included:
//!
//! * **Verdicts.** The accelerator, CPU and fast-path decoders all accept
//!   or all reject, rejects in the same [`DecodeFault`] class.
//! * **Re-encodes.** When all three accept, each one's decode is
//!   serialized again — `do_proto_ser` of the accelerator's object,
//!   `SoftwareCodec::serialize` of the CPU's, `encode_decoded` of the fast
//!   path's — and the three outputs are byte-identical.
//! * **Values.** When `reference::decode` accepts too, every codec's tree
//!   equals the reference's, and every re-encode equals `reference::encode`
//!   of that tree (which differs from the input when the input is not
//!   canonical).
//!
//! The reference is the value oracle, not a verdict seat. It validates
//! UTF-8 in proto2 strings, which the other three do not, and it calls
//! some cut-off length-delimited fields `LengthOverrun` where the other
//! three say `Truncated`. On the 20,256 inputs of the two 10k corruption
//! sweeps it disagrees with the CPU verdict on 239 (228 `InvalidUtf8`, 11
//! `LengthOverrun`), while the accelerator, CPU and fast path agree on all
//! of them.

use protoacc::{AccelConfig, DecodeFault, ProtoAccelerator};
use protoacc_cpu::{CostTable, SoftwareCodec};
use protoacc_fastpath::{DecodeArena, FastCodec};
use protoacc_mem::{MemConfig, Memory};
use protoacc_runtime::{
    object, reference, write_adts, AdtTables, BumpArena, MessageLayouts, MessageValue, RuntimeError,
};
use protoacc_schema::{MessageId, Schema};

/// Guest memory map of one oracle; every region is `REGION` bytes and they
/// are disjoint by construction.
const REGION: u64 = 1 << 26;
const SETUP_BASE: u64 = 0x1_0000;
const INPUT_BASE: u64 = 0x1000_0000;
const ACCEL_ARENA_BASE: u64 = 0x2000_0000;
const CPU_ARENA_BASE: u64 = 0x3000_0000;
const VALUE_ARENA_BASE: u64 = 0x4000_0000;
const ACCEL_OUT_BASE: u64 = 0x5000_0000;
const ACCEL_PTRS_BASE: u64 = 0x6000_0000;
const CPU_OUT_BASE: u64 = 0x7000_0000;

/// One decoder's answer for one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The input decoded successfully.
    Accept,
    /// The input was rejected with this fault class.
    Reject(DecodeFault),
}

impl Verdict {
    /// Whether this verdict is an accept.
    pub fn is_accept(self) -> bool {
        matches!(self, Verdict::Accept)
    }
}

/// One of the four codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// The accelerator model.
    Accel,
    /// `crates/cpu`'s instrumented software codec.
    Cpu,
    /// The native fast-path codec.
    Fast,
    /// The value-tree reference codec.
    Reference,
}

/// The verdict seats, in the order of [`Judgement::verdicts`].
const SEATS: [Codec; 3] = [Codec::Accel, Codec::Cpu, Codec::Fast];

/// What disagreed, and which codec disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// This codec's accept/reject verdict or fault class differs from the
    /// other two.
    Verdict(Codec),
    /// This codec's decoded tree differs from the reference's, or the
    /// reference's tree differs from the value it encoded.
    Tree(Codec),
    /// This codec's serialized bytes differ from the others'.
    Bytes(Codec),
}

/// Everything the oracle found out about one input.
#[derive(Debug, Clone)]
pub struct Judgement {
    /// The accelerator, CPU and fast-path verdicts, in that order.
    pub verdicts: [Verdict; 3],
    /// `reference::decode`'s tree, when all three decoders and the
    /// reference accept.
    pub tree: Option<MessageValue>,
    /// The CPU's re-encode, when all three decoders accept.
    pub encoded: Option<Vec<u8>>,
    /// The first disagreement found, if any.
    pub divergence: Option<Divergence>,
}

impl Judgement {
    /// The verdict all three decoders gave, or `None` when anything
    /// diverged.
    pub fn verdict(&self) -> Option<Verdict> {
        self.divergence.is_none().then_some(self.verdicts[1])
    }
}

/// One input on which the codecs disagreed.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Caller-supplied label (fault class, trial number, ...).
    pub label: String,
    /// What disagreed, naming the codec.
    pub divergence: Divergence,
    /// The accelerator, CPU and fast-path verdicts.
    pub verdicts: [Verdict; 3],
    /// The offending bytes, for replay.
    pub input: Vec<u8>,
}

/// Tally of a differential run.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Inputs examined.
    pub trials: usize,
    /// Inputs every codec accepted and re-encoded alike.
    pub accepted: usize,
    /// Inputs all three decoders rejected with the same fault class.
    pub rejected: usize,
    /// Accepted inputs whose re-encode differs from the input.
    pub non_canonical: usize,
    /// Disagreements of any kind.
    pub mismatches: Vec<Mismatch>,
}

impl DiffReport {
    /// Tallies one judgement of `input`; a divergent input is kept for
    /// replay.
    pub fn record(&mut self, label: &str, input: &[u8], judgement: &Judgement) {
        self.trials += 1;
        match (judgement.divergence, judgement.verdicts[1]) {
            (Some(divergence), _) => self.mismatches.push(Mismatch {
                label: label.to_owned(),
                divergence,
                verdicts: judgement.verdicts,
                input: input.to_vec(),
            }),
            (None, Verdict::Accept) => {
                self.accepted += 1;
                self.non_canonical += usize::from(judgement.encoded.as_deref() != Some(input));
            }
            (None, Verdict::Reject(_)) => self.rejected += 1,
        }
    }

    /// True when every trial agreed.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// One-line summary for failure messages.
    pub fn summary(&self) -> String {
        format!(
            "{} trials: {} accepted, {} rejected, {} mismatches{}",
            self.trials,
            self.accepted,
            self.rejected,
            self.mismatches.len(),
            self.mismatches
                .first()
                .map(|m| format!(
                    " (first: {} {:?} verdicts={:?} input={:02x?})",
                    m.label,
                    m.divergence,
                    m.verdicts,
                    &m.input[..m.input.len().min(48)]
                ))
                .unwrap_or_default()
        )
    }
}

/// The four codecs staged once for one message type of one schema.
///
/// Construction writes the ADT tables and both destination objects into
/// one guest memory and compiles the fast path's tables. Each judgement
/// restages only the input bytes, zeroes both destination objects (neither
/// decoder clears fields the input does not set) and resets every arena,
/// so each trial is independent of the last.
pub struct Oracle {
    layouts: MessageLayouts,
    type_id: MessageId,
    cost: CostTable,
    mem: Memory,
    adts: AdtTables,
    dest_accel: u64,
    dest_cpu: u64,
    cpu_arena: BumpArena,
    value_arena: BumpArena,
    fast: FastCodec,
    fast_arena: DecodeArena,
}

impl Oracle {
    /// Stages an oracle for `type_id` of `schema`.
    ///
    /// # Panics
    ///
    /// Panics if the schema's ADT tables and two destination objects do not
    /// fit the 64 MiB setup region.
    pub fn new(schema: &Schema, type_id: MessageId) -> Self {
        let layouts = MessageLayouts::compute(schema);
        let mut mem = Memory::new(MemConfig::default());
        let mut setup = BumpArena::new(SETUP_BASE, REGION);
        let adts = write_adts(schema, &layouts, &mut mem.data, &mut setup)
            .expect("ADT tables fit the setup region");
        let object_size = layouts.layout(type_id).object_size();
        let mut dest = || setup.alloc(object_size, 8).expect("dest object fits");
        let (dest_accel, dest_cpu) = (dest(), dest());
        Oracle {
            layouts,
            type_id,
            cost: CostTable::boom(),
            mem,
            adts,
            dest_accel,
            dest_cpu,
            cpu_arena: BumpArena::new(CPU_ARENA_BASE, REGION),
            value_arena: BumpArena::new(VALUE_ARENA_BASE, REGION),
            fast: FastCodec::new(schema),
            fast_arena: DecodeArena::new(),
        }
    }

    /// Decodes `bytes` with the accelerator, the CPU codec and the fast
    /// path, and, when all three accept, re-encodes each decode and
    /// compares the bytes and trees as the module doc describes. Never
    /// panics, whatever the bytes.
    pub fn judge(&mut self, bytes: &[u8]) -> Judgement {
        let layout = self.layouts.layout(self.type_id);
        self.mem.data.write_bytes(INPUT_BASE, bytes);
        for dest in [self.dest_accel, self.dest_cpu] {
            self.mem
                .data
                .write_zeros(dest, layout.object_size() as usize);
        }
        let len = bytes.len() as u64;
        let mut accel = accelerator();
        let accel_decode = accel.do_proto_deser(
            &mut self.mem,
            self.adts.addr(self.type_id),
            INPUT_BASE,
            len,
            self.dest_accel,
            layout.min_field(),
        );
        self.cpu_arena.reset();
        let (_, cpu_decode) = SoftwareCodec::new(&self.cost).try_deserialize(
            &mut self.mem,
            self.fast.schema(),
            &self.layouts,
            self.type_id,
            INPUT_BASE,
            len,
            self.dest_cpu,
            &mut self.cpu_arena,
        );
        let fast_decode = self.fast.decode(self.type_id, bytes, &mut self.fast_arena);
        let runtime = |e: &RuntimeError| Verdict::Reject(DecodeFault::from_runtime(e));
        let verdicts = [
            accel_decode.as_ref().map_or_else(
                |e| Verdict::Reject(DecodeFault::classify(e)),
                |_| Verdict::Accept,
            ),
            cpu_decode
                .as_ref()
                .map_or_else(runtime, |_| Verdict::Accept),
            fast_decode
                .as_ref()
                .map_or_else(runtime, |_| Verdict::Accept),
        ];
        let mut judgement = Judgement {
            verdicts,
            tree: None,
            encoded: None,
            divergence: odd_one_out(&verdicts).map(Divergence::Verdict),
        };
        let (None, Ok(fast_obj)) = (judgement.divergence, fast_decode) else {
            return judgement;
        };

        let encodes = [
            self.accel_serialize(&mut accel, self.dest_accel),
            self.cpu_serialize(self.dest_cpu),
            Some(
                self.fast
                    .encode_decoded(self.type_id, bytes, &self.fast_arena, fast_obj),
            ),
        ];
        let schema = self.fast.schema();
        judgement.divergence = match reference::decode(bytes, self.type_id, schema) {
            Ok(tree) => {
                let read = |dest| {
                    object::read_message(&self.mem.data, schema, &self.layouts, self.type_id, dest)
                        .ok()
                };
                let trees = [
                    read(self.dest_accel),
                    read(self.dest_cpu),
                    Some(
                        self.fast
                            .to_value(self.type_id, bytes, &self.fast_arena, fast_obj),
                    ),
                ];
                let tree_differs = trees
                    .iter()
                    .position(|t| !t.as_ref().is_some_and(|t| t.bits_eq(&tree)))
                    .map(|i| Divergence::Tree(SEATS[i]));
                let bytes_differ = match reference::encode(&tree, schema) {
                    Ok(expected) => encodes
                        .iter()
                        .position(|b| b.as_ref() != Some(&expected))
                        .map(|i| Divergence::Bytes(SEATS[i])),
                    Err(_) => Some(Divergence::Bytes(Codec::Reference)),
                };
                judgement.tree = Some(tree);
                tree_differs.or(bytes_differ)
            }
            Err(_) => encodes
                .iter()
                .position(Option::is_none)
                .map(|i| Divergence::Bytes(SEATS[i]))
                .or_else(|| odd_one_out(&encodes).map(Divergence::Bytes)),
        };
        let [_, cpu_bytes, _] = encodes;
        judgement.encoded = cpu_bytes;
        judgement
    }

    /// The encode side. The accelerator and the CPU codec serialize the
    /// object graph `object::write_message` builds for `value`; the fast
    /// path goes through [`Oracle::judge`] of the reference encoding
    /// (`decode` + `encode_decoded`). Every output must equal
    /// `reference::encode(value)`, and every codec must decode those bytes
    /// back to `value`.
    ///
    /// # Panics
    ///
    /// Panics if the reference cannot encode `value` or its object graph
    /// does not fit the 64 MiB value arena.
    pub fn judge_value(&mut self, value: &MessageValue) -> Judgement {
        let schema = self.fast.schema();
        let wire = reference::encode(value, schema).expect("the reference encodes the value");
        self.value_arena.reset();
        let obj = object::write_message(
            &mut self.mem.data,
            schema,
            &self.layouts,
            &mut self.value_arena,
            value,
        )
        .expect("the value's object graph fits its arena");
        let accel = self.accel_serialize(&mut accelerator(), obj);
        let cpu = self.cpu_serialize(obj);
        let mut judgement = self.judge(&wire);
        let encode_side = [(Codec::Accel, accel), (Codec::Cpu, cpu)]
            .into_iter()
            .find(|(_, bytes)| bytes.as_deref() != Some(&wire[..]))
            .map(|(codec, _)| Divergence::Bytes(codec));
        let round_trip = judgement
            .tree
            .as_ref()
            .is_some_and(|tree| tree.bits_eq(value));
        judgement.divergence = encode_side
            .or(judgement.divergence)
            .or((!round_trip).then_some(Divergence::Tree(Codec::Reference)));
        judgement
    }

    /// `do_proto_ser` of the object at `obj`, read back through the
    /// accelerator's pointer buffer; `None` when serialization fails or the
    /// pointer-buffer entry is not the output `do_proto_ser` returned.
    fn accel_serialize(&mut self, accel: &mut ProtoAccelerator, obj: u64) -> Option<Vec<u8>> {
        let layout = self.layouts.layout(self.type_id);
        let run = accel
            .do_proto_ser(
                &mut self.mem,
                self.adts.addr(self.type_id),
                obj,
                layout.hasbits_offset(),
                layout.min_field(),
                layout.max_field(),
            )
            .ok()?;
        let (addr, len) = accel.serialized_output(&self.mem, accel.serialized_outputs() - 1)?;
        ((addr, len) == (run.out_addr, run.out_len))
            .then(|| self.mem.data.read_vec(addr, len as usize))
    }

    /// `SoftwareCodec::serialize` of the object at `obj`; `None` when it
    /// fails.
    fn cpu_serialize(&mut self, obj: u64) -> Option<Vec<u8>> {
        let (_, len) = SoftwareCodec::new(&self.cost)
            .serialize(
                &mut self.mem,
                self.fast.schema(),
                &self.layouts,
                self.type_id,
                obj,
                CPU_OUT_BASE,
            )
            .ok()?;
        Some(self.mem.data.read_vec(CPU_OUT_BASE, len as usize))
    }
}

/// A fresh accelerator with both arenas assigned, so no state carries from
/// one trial to the next.
fn accelerator() -> ProtoAccelerator {
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    accel.deser_assign_arena(ACCEL_ARENA_BASE, REGION);
    accel.ser_assign_arena(ACCEL_OUT_BASE, REGION, ACCEL_PTRS_BASE, 1 << 12);
    accel
}

/// The seat whose answer differs from the other two (the accelerator's
/// when all three differ), or `None` when all three agree.
fn odd_one_out<T: PartialEq>([accel, cpu, fast]: &[T; 3]) -> Option<Codec> {
    if accel == cpu && cpu == fast {
        None
    } else if accel == cpu {
        Some(Codec::Fast)
    } else if accel == fast {
        Some(Codec::Cpu)
    } else {
        Some(Codec::Accel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{corrupt, WIRE_FAULTS};
    use protoacc_runtime::Value;
    use protoacc_schema::{FieldType, SchemaBuilder};
    use xrand::StdRng;

    fn setup() -> (Schema, MessageId, MessageValue) {
        let mut b = SchemaBuilder::new();
        let root = b.declare("Root");
        b.message(root)
            .optional("n", FieldType::UInt64, 1)
            .optional("s", FieldType::String, 2)
            .repeated("r", FieldType::Int32, 3)
            .packed("p", FieldType::SInt64, 4);
        let schema = b.build().unwrap();
        let mut m = MessageValue::new(root);
        m.set_unchecked(1, Value::UInt64(77));
        m.set_unchecked(2, Value::Str("differential".into()));
        m.set_repeated(3, vec![Value::Int32(-4), Value::Int32(19)]);
        m.set_repeated(4, vec![Value::SInt64(i64::MIN), Value::SInt64(3)]);
        (schema, root, m)
    }

    #[test]
    fn clean_input_agrees_four_ways() {
        let (schema, root, m) = setup();
        let wire = reference::encode(&m, &schema).unwrap();
        let mut oracle = Oracle::new(&schema, root);
        let judgement = oracle.judge(&wire);
        assert_eq!(judgement.verdict(), Some(Verdict::Accept), "{judgement:?}");
        assert!(judgement.tree.unwrap().bits_eq(&m));
        assert_eq!(judgement.encoded.unwrap(), wire);
        let judgement = oracle.judge_value(&m);
        assert_eq!(judgement.verdict(), Some(Verdict::Accept), "{judgement:?}");
    }

    #[test]
    fn every_wire_fault_class_agrees_on_a_small_sweep() {
        let (schema, root, m) = setup();
        let wire = reference::encode(&m, &schema).unwrap();
        let mut oracle = Oracle::new(&schema, root);
        let mut report = DiffReport::default();
        for seed in [0xD1FF, 0xFA57] {
            let mut rng = StdRng::seed_from_u64(seed);
            for fault in WIRE_FAULTS {
                for _ in 0..64 {
                    let mutated = corrupt(&wire, fault, &mut rng);
                    report.record(fault.label(), &mutated, &oracle.judge(&mutated));
                }
            }
        }
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.trials, 2 * 64 * WIRE_FAULTS.len());
        assert!(report.accepted > 0, "sweep never produced an accept");
        assert!(report.rejected > 0, "sweep never produced a rejection");
    }

    #[test]
    fn trials_are_independent() {
        let (schema, root, m) = setup();
        let wire = reference::encode(&m, &schema).unwrap();
        let mut oracle = Oracle::new(&schema, root);
        // A hostile input must not poison the judgement of a clean one.
        let hostile = oracle.judge(&[0xFF; 32]);
        assert!(!hostile.verdicts[1].is_accept(), "{hostile:?}");
        let clean = oracle.judge(&wire);
        assert_eq!(clean.verdict(), Some(Verdict::Accept), "{clean:?}");
        assert!(clean.tree.unwrap().bits_eq(&m));
        let empty = oracle.judge(&[]);
        assert_eq!(empty.verdict(), Some(Verdict::Accept), "{empty:?}");
        assert!(empty.tree.unwrap().is_empty());
    }

    /// Decoders set only the fields the input carries, so a destination
    /// left holding a full message would show its fields through a later
    /// decode of a subset.
    #[test]
    fn a_stale_destination_never_shows_through() {
        let (schema, root, full) = setup();
        let mut oracle = Oracle::new(&schema, root);
        assert_eq!(oracle.judge_value(&full).verdict(), Some(Verdict::Accept));
        let mut subset = MessageValue::new(root);
        subset.set_unchecked(1, Value::UInt64(5));
        let judgement = oracle.judge_value(&subset);
        assert_eq!(judgement.verdict(), Some(Verdict::Accept), "{judgement:?}");
        assert!(judgement.tree.unwrap().bits_eq(&subset));
    }
}
