//! The fast-path codec: SWAR-varint decode through precompiled dispatch
//! tables into an arena, and front-to-back serialization with length
//! prefixes taken from the decode.
//!
//! [`FastCodec`] is `Codec`-shaped like `crates/cpu`'s software codec
//! (`protoacc_cpu::SoftwareCodec`) and is held to that codec's *exact*
//! observable semantics: byte-identical encodes, identical accept/reject
//! verdicts (same `RuntimeError` classes, hence same `DecodeFault` mapping)
//! on every corruption class, identical value trees on accepts. Every
//! divergence the differential suite surfaces is a bug in one of the two
//! engines and gets fixed in place, not papered over.

use crate::arena::{pack_str, unpack_str, DecodeArena};
use crate::dispatch::{CompiledSchema, FieldEntry, Op};
use crate::forward::{fix_prefix, put_payload, put_varint, varint_len, SLACK};
use crate::swar;
use protoacc_runtime::object::value_from_bits;
use protoacc_runtime::reference::MAX_DECODE_DEPTH;
use protoacc_runtime::{MessageValue, RuntimeError, Value, REPEATED_HEADER_BYTES};
use protoacc_schema::{FieldType, MessageId, Schema};
use protoacc_wire::{zigzag, FieldKey, WireError, WireType};

/// A compiled, reusable fast-path codec for one schema.
#[derive(Debug, Clone)]
pub struct FastCodec {
    compiled: CompiledSchema,
}

impl FastCodec {
    /// Compiles `schema` into dispatch tables.
    pub fn new(schema: &Schema) -> Self {
        FastCodec {
            compiled: CompiledSchema::compile(schema),
        }
    }

    /// The compiled schema backing this codec.
    pub fn compiled(&self) -> &CompiledSchema {
        &self.compiled
    }

    /// The source schema.
    pub fn schema(&self) -> &Schema {
        self.compiled.schema()
    }

    /// Decodes `input` as one `type_id` message into `arena`, returning the
    /// root object's offset. The arena is reset first; string and bytes
    /// fields borrow from `input`, so `input` must stay alive (and
    /// unmodified) as long as the decoded object is read.
    ///
    /// # Errors
    ///
    /// The same `RuntimeError` classes as `crates/cpu`'s
    /// `SoftwareCodec::deser_message` on the same inputs — that equivalence
    /// is the differential suite's core invariant.
    pub fn decode(
        &self,
        type_id: MessageId,
        input: &[u8],
        arena: &mut DecodeArena,
    ) -> Result<u32, RuntimeError> {
        arena.reset();
        let cm = self.compiled.message(type_id);
        let obj = arena.alloc_object(cm)?;
        if let Err(e) = self.frame(arena, input, 0, input.len(), type_id, obj, 0) {
            // A failed frame leaves its own and its ancestors' accumulators
            // open; hand their buffers back for the next decode.
            arena.scratch.unwind(0);
            return Err(e);
        }
        Ok(obj)
    }

    /// Converts a decoded arena object back into a [`MessageValue`] tree.
    /// `input` must be the buffer the object was decoded from (string slots
    /// borrow from it).
    pub fn to_value(
        &self,
        type_id: MessageId,
        input: &[u8],
        arena: &DecodeArena,
        obj: u32,
    ) -> MessageValue {
        let cm = self.compiled.message(type_id);
        let descriptor = self.compiled.schema().message(type_id);
        let mut message = MessageValue::new(type_id);
        for &number in &cm.numbers {
            let entry = cm.entry(number).expect("listed number has an entry");
            if !arena.bit(
                obj + cm.hasbits_offset + entry.hasbit_byte,
                entry.hasbit_mask,
            ) {
                continue;
            }
            let ft = descriptor
                .field_by_number(number)
                .expect("listed number is in the descriptor")
                .field_type();
            let slot = obj + entry.slot_offset;
            if entry.repeated {
                let header = arena.read_u64(slot) as u32;
                let data = arena.read_u64(header) as u32;
                let count = arena.read_u64(header + 8) as usize;
                let elem = u32::from(entry.elem_size);
                let values = (0..count)
                    .map(|i| self.elem_value(ft, entry, input, arena, data + i as u32 * elem))
                    .collect();
                message.set_repeated(number, values);
            } else {
                let value = match entry.op {
                    Op::Bytes => borrowed_value(ft, input, arena.read_u64(slot)),
                    Op::Msg => {
                        let sub = entry.sub.expect("Msg op has a sub type");
                        let sub_obj = arena.read_u64(slot) as u32;
                        Value::Message(self.to_value(sub, input, arena, sub_obj))
                    }
                    _ => value_from_bits(ft, arena.read_scalar(slot, entry.elem_size as usize)),
                };
                message.set_unchecked(number, value);
            }
        }
        message
    }

    /// One repeated element from the arena's element array.
    fn elem_value(
        &self,
        ft: FieldType,
        entry: &FieldEntry,
        input: &[u8],
        arena: &DecodeArena,
        at: u32,
    ) -> Value {
        match entry.op {
            Op::Bytes => borrowed_value(ft, input, arena.read_u64(at)),
            Op::Msg => {
                let sub = entry.sub.expect("Msg op has a sub type");
                Value::Message(self.to_value(sub, input, arena, arena.read_u64(at) as u32))
            }
            _ => value_from_bits(ft, arena.read_scalar(at, entry.elem_size as usize)),
        }
    }

    /// Serializes a decoded arena object straight back to wire bytes, never
    /// materializing a value tree. `input` must be the buffer the object was
    /// decoded from.
    ///
    /// Byte-identical to decoding to a value tree and reference-encoding it.
    pub fn encode_decoded(
        &self,
        type_id: MessageId,
        input: &[u8],
        arena: &DecodeArena,
        obj: u32,
    ) -> Vec<u8> {
        // Canonical input re-encodes to exactly its own length, so this
        // buffer holds the output and every wide store past its end.
        let mut out = Vec::with_capacity(input.len() + SLACK);
        self.encode_obj(type_id, input, arena, obj, &mut out);
        out
    }

    /// Appends one object's present fields, found by a hasbits scan, in
    /// field-number order. Each repeated field goes out with its op match
    /// hoisted out of the element loop.
    fn encode_obj(
        &self,
        type_id: MessageId,
        input: &[u8],
        arena: &DecodeArena,
        obj: u32,
        out: &mut Vec<u8>,
    ) {
        let cm = self.compiled.message(type_id);
        for entry in cm.present(arena.bytes(obj, cm.object_size as usize)) {
            let slot = obj + entry.slot_offset;
            if !entry.repeated {
                put_varint(out, entry.key_encoded);
                match entry.op {
                    Op::Bytes => put_string(out, input, arena.read_u64(slot)),
                    Op::Msg => self.encode_sub(entry, input, arena, arena.read_u64(slot), out),
                    op => put_scalar(op, arena.read_scalar(slot, entry.elem_size as usize), out),
                }
                continue;
            }
            let header = arena.read_u64(slot) as u32;
            let data = arena.read_u64(header) as u32;
            let count = arena.read_u64(header + 8) as usize;
            let elems = arena.bytes(data, count * usize::from(entry.elem_size));
            if entry.packed {
                put_varint(out, entry.packed_key_encoded);
                put_scalars(entry.op, elems, None, out);
                continue;
            }
            match entry.op {
                Op::Msg => {
                    for word in elems.chunks_exact(8) {
                        put_varint(out, entry.key_encoded);
                        self.encode_sub(entry, input, arena, le::<8>(word), out);
                    }
                }
                Op::Bytes => {
                    for word in elems.chunks_exact(8) {
                        put_varint(out, entry.key_encoded);
                        put_string(out, input, le::<8>(word));
                    }
                }
                op => put_scalars(op, elems, Some(entry.key_encoded), out),
            }
        }
    }

    /// One sub-message's length prefix and body (no key). `word` is the
    /// slot or element word holding the sub-object's offset and its input
    /// body length, which the prefix is written from; a body that comes out
    /// another length (non-canonical input) gets its prefix rewritten.
    fn encode_sub(
        &self,
        entry: &FieldEntry,
        input: &[u8],
        arena: &DecodeArena,
        word: u64,
        out: &mut Vec<u8>,
    ) {
        let sub = entry.sub.expect("Msg op has a sub type");
        let (sub_obj, len) = unpack_str(word);
        let at = out.len();
        put_varint(out, len as u64);
        let body = out.len();
        self.encode_obj(sub, input, arena, sub_obj as u32, out);
        if out.len() - body != len {
            fix_prefix(out, at, body);
        }
    }
}

/// The `N`-byte little-endian scalar at the front of `bytes`.
#[inline(always)]
fn le<const N: usize>(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..N].copy_from_slice(&bytes[..N]);
    u64::from_le_bytes(word)
}

/// The varint a scalar's slot bits go on the wire as: the inverse of the
/// decode-side transform (sign extension for int32/enum, zigzag for sint
/// types), exactly as `crates/cpu::wire_varint_from_bits` does.
#[inline(always)]
fn wire_varint(op: Op, bits: u64) -> u64 {
    match op {
        Op::VarintI32 => bits as u32 as i32 as i64 as u64,
        Op::VarintZig32 => u64::from(zigzag::encode32(bits as u32 as i32)),
        Op::VarintZig64 => zigzag::encode64(bits as i64),
        _ => bits,
    }
}

/// One singular scalar payload from its slot bits.
fn put_scalar(op: Op, bits: u64, out: &mut Vec<u8>) {
    match op {
        Op::Fixed32 => out.extend_from_slice(&(bits as u32).to_le_bytes()),
        Op::Fixed64 => out.extend_from_slice(&bits.to_le_bytes()),
        Op::Bytes | Op::Msg => unreachable!("length-delimited ops handled by callers"),
        op => put_varint(out, wire_varint(op, bits)),
    }
}

/// A string or bytes payload behind its length, from its (offset, len)
/// word into `input`.
#[inline(always)]
fn put_string(out: &mut Vec<u8>, input: &[u8], word: u64) {
    let (off, len) = unpack_str(word);
    put_varint(out, len as u64);
    put_payload(out, input, off, len);
}

/// Appends a repeated scalar field's arena array: each element behind
/// `key` for an unpacked field, or, when `key` is `None`, a packed body
/// behind its length. Each op gets its own element loop.
fn put_scalars(op: Op, elems: &[u8], key: Option<u64>, out: &mut Vec<u8>) {
    match op {
        Op::Fixed32 => put_fixed::<4>(elems, key, out),
        Op::Fixed64 => put_fixed::<8>(elems, key, out),
        Op::VarintRaw => put_varints::<8>(elems, key, out, |b| b),
        Op::VarintI32 => put_varints::<4>(elems, key, out, |b| wire_varint(Op::VarintI32, b)),
        Op::VarintU32 => put_varints::<4>(elems, key, out, |b| b),
        Op::VarintBool => put_varints::<1>(elems, key, out, |b| b),
        Op::VarintZig32 => put_varints::<4>(elems, key, out, |b| wire_varint(Op::VarintZig32, b)),
        Op::VarintZig64 => put_varints::<8>(elems, key, out, |b| wire_varint(Op::VarintZig64, b)),
        Op::Bytes | Op::Msg => unreachable!("length-delimited ops handled by callers"),
    }
}

/// Varint elements of `N`-byte slots, each behind `key` if given, else as
/// a packed body behind its length, which one sizing pass finds; `to_wire`
/// maps slot bits to the wire varint.
#[inline(always)]
fn put_varints<const N: usize>(
    elems: &[u8],
    key: Option<u64>,
    out: &mut Vec<u8>,
    to_wire: impl Fn(u64) -> u64,
) {
    let values = elems.chunks_exact(N).map(|elem| to_wire(le::<N>(elem)));
    match key {
        None => {
            let len: usize = values.clone().map(varint_len).sum();
            put_varint(out, len as u64);
            for value in values {
                put_varint(out, value);
            }
        }
        Some(key) => {
            for value in values {
                put_varint(out, key);
                put_varint(out, value);
            }
        }
    }
}

/// Fixed-width elements of `N` bytes. The arena array is little-endian at
/// the wire width, so a packed body is the array itself. Unpacked elements
/// behind a 1-byte key fill one region front to back, key then element.
#[inline(always)]
fn put_fixed<const N: usize>(elems: &[u8], key: Option<u64>, out: &mut Vec<u8>) {
    match key {
        None => {
            put_varint(out, elems.len() as u64);
            out.extend_from_slice(elems);
        }
        Some(key) if key < 0x80 => {
            let start = out.len();
            out.resize(start + elems.len() / N * (N + 1), 0);
            for (dst, elem) in out[start..]
                .chunks_exact_mut(N + 1)
                .zip(elems.chunks_exact(N))
            {
                dst[0] = key as u8;
                dst[1..].copy_from_slice(elem);
            }
        }
        Some(key) => {
            for elem in elems.chunks_exact(N) {
                put_varint(out, key);
                out.extend_from_slice(elem);
            }
        }
    }
}

/// A borrowed string/bytes slot as a [`Value`].
fn borrowed_value(ft: FieldType, input: &[u8], word: u64) -> Value {
    let (off, len) = unpack_str(word);
    let payload = &input[off..off + len];
    match ft {
        FieldType::String => Value::Str(String::from_utf8_lossy(payload).into_owned()),
        _ => Value::Bytes(payload.to_vec()),
    }
}

/// Normalizes a decoded varint payload into slot bits — the same transforms
/// `crates/cpu`'s scalar path applies.
#[inline]
fn decode_bits(op: Op, raw: u64) -> u64 {
    match op {
        Op::VarintI32 => u64::from(raw as u32),
        Op::VarintU32 => raw & 0xffff_ffff,
        Op::VarintBool => u64::from(raw != 0),
        Op::VarintZig32 => u64::from(zigzag::decode32(raw as u32) as u32),
        Op::VarintZig64 => zigzag::decode64(raw) as u64,
        _ => raw,
    }
}

impl FastCodec {
    /// Decodes one message frame spanning `full[start..end]` into `obj`.
    /// Its scratch (repeated-field element buffers and the accumulator
    /// stack) lives in the caller's `arena`, so steady-state decoding
    /// through a reused arena does no heap allocation.
    ///
    /// Error ordering and classification deliberately mirror
    /// `crates/cpu::SoftwareCodec::deser_message` step for step; comments
    /// mark the decision points the differential suite exercises.
    #[allow(clippy::too_many_arguments)]
    fn frame(
        &self,
        arena: &mut DecodeArena,
        full: &[u8],
        start: usize,
        end: usize,
        type_id: MessageId,
        obj: u32,
        depth: usize,
    ) -> Result<(), RuntimeError> {
        if depth > MAX_DECODE_DEPTH {
            return Err(RuntimeError::DepthExceeded {
                limit: MAX_DECODE_DEPTH,
            });
        }
        let cs = &self.compiled;
        let cm = cs.message(type_id);
        // This frame's repeated-field accumulators are the scratch stack
        // from `base` up; `hint` is the one used last.
        let base = arena.scratch.accums.len();
        let mut hint = base;
        // Same-key prediction: the last known key with its resolved entry
        // and wire type. Scalar, string and bytes runs stay inside
        // `decode_run`; runs of sub-messages come back here with the same
        // key, and a hit skips key validation and the table lookup. Unknown
        // keys are never cached.
        let mut last: Option<(u64, &FieldEntry, WireType)> = None;
        let mut pos = start;
        while pos < end {
            let key_start = pos;
            let (key_raw, key_len) = swar::decode(&full[pos..end])?;
            pos += key_len;
            let (entry, wt) = match last {
                Some((k, entry, wt)) if k == key_raw => (entry, wt),
                _ => {
                    let key = FieldKey::from_encoded(key_raw)?;
                    let wt = key.wire_type();
                    let Some(entry) = cm.entry(key.field_number()) else {
                        pos += skip_len(&full[..end], pos, wt)?;
                        continue;
                    };
                    last = Some((key_raw, entry, wt));
                    (entry, wt)
                }
            };
            let number = entry.number;
            // Packed arrival: a length-delimited body for a packable
            // repeated field whose scalar wire type is not LD itself.
            if wt == WireType::LengthDelimited
                && entry.wire != WireType::LengthDelimited
                && entry.repeated
                && entry.packable
            {
                let (body_len, len_len) = swar::decode(&full[pos..end])?;
                pos += len_len;
                let remaining = end - pos;
                if body_len > remaining as u64 {
                    return Err(RuntimeError::Wire(WireError::LengthOutOfBounds {
                        declared: body_len,
                        remaining,
                    }));
                }
                // Elements decode against the *clamped* body end: an element
                // straddling the body boundary is Truncated, never silently
                // completed from the bytes that follow the packed run.
                let body_end = pos + body_len as usize;
                if pos < body_end {
                    // An accumulator (and hence the hasbit) appears only
                    // once at least one element exists: an empty packed body
                    // leaves the field absent, exactly like crates/cpu.
                    let acc = arena.scratch.accum(base, &mut hint, number);
                    let elems = &mut arena.scratch.accums[acc].elems;
                    match entry.op {
                        // A fixed-width body is already the arena array's
                        // bytes. A ragged tail is the Truncated verdict the
                        // element loop reaches at its last, straddling
                        // element.
                        Op::Fixed32 | Op::Fixed64 => {
                            if !(body_end - pos).is_multiple_of(entry.op.width()) {
                                return Err(RuntimeError::Wire(WireError::Truncated {
                                    offset: body_end,
                                }));
                            }
                            elems.extend_from_slice(&full[pos..body_end]);
                            pos = body_end;
                        }
                        op => pos = decode_run(op, &full[..body_end], pos, None, elems)?,
                    }
                }
                continue;
            }
            if wt != entry.wire {
                return Err(RuntimeError::WireTypeMismatch {
                    field_number: number,
                });
            }
            if entry.repeated && entry.op != Op::Msg {
                // An unpacked run: this element and every one that follows
                // behind the same raw key bytes, in one loop for the op.
                let acc = arena.scratch.accum(base, &mut hint, number);
                let elems = &mut arena.scratch.accums[acc].elems;
                pos = decode_run(
                    entry.op,
                    &full[..end],
                    pos,
                    Some(&full[key_start..pos]),
                    elems,
                )?;
                continue;
            }
            match entry.op {
                Op::Bytes => {
                    let (payload_off, len) = length_prefix(full, pos, end)?;
                    pos = payload_off + len;
                    arena.write_u64(obj + entry.slot_offset, pack_str(payload_off, len));
                    arena.set_bit(
                        obj + cm.hasbits_offset + entry.hasbit_byte,
                        entry.hasbit_mask,
                    );
                }
                Op::Msg => {
                    let (payload_off, len) = length_prefix(full, pos, end)?;
                    pos = payload_off + len;
                    let sub = entry.sub.expect("Msg op has a sub type");
                    // Allocation precedes the sub-parse (arena exhaustion
                    // surfaces before the sub-frame's own errors), and a
                    // repeated singular arrival overwrites the slot with the
                    // fresh object: last-one-wins, no merge — both mirroring
                    // crates/cpu. The slot or element word keeps the body's
                    // input length above the object offset, for the encoder
                    // to write the length prefix from.
                    let sub_obj = arena.alloc_object(cs.message(sub))?;
                    self.frame(
                        arena,
                        full,
                        payload_off,
                        payload_off + len,
                        sub,
                        sub_obj,
                        depth + 1,
                    )?;
                    let word = pack_str(sub_obj as usize, len);
                    if entry.repeated {
                        let acc = arena.scratch.accum(base, &mut hint, number);
                        arena.scratch.accums[acc]
                            .elems
                            .extend_from_slice(&word.to_le_bytes());
                    } else {
                        arena.write_u64(obj + entry.slot_offset, word);
                        arena.set_bit(
                            obj + cm.hasbits_offset + entry.hasbit_byte,
                            entry.hasbit_mask,
                        );
                    }
                }
                _ => {
                    let (bits, n) = scalar_element(&full[..end], pos, entry)?;
                    pos += n;
                    arena.write_scalar(obj + entry.slot_offset, bits, entry.elem_size as usize);
                    arena.set_bit(
                        obj + cm.hasbits_offset + entry.hasbit_byte,
                        entry.hasbit_mask,
                    );
                }
            }
        }
        // Materialize repeated fields in ascending field-number order (the
        // BTreeMap order crates/cpu materializes in), then retire this
        // frame's accumulators.
        arena.scratch.accums[base..].sort_unstable_by_key(|a| a.number);
        for i in base..arena.scratch.accums.len() {
            let number = arena.scratch.accums[i].number;
            let elems = std::mem::take(&mut arena.scratch.accums[i].elems);
            let entry = cm.entry(number).expect("accum numbers are known fields");
            let header = place_array(arena, &elems, entry.op.width());
            arena.scratch.pool.push(elems);
            arena.write_u64(obj + entry.slot_offset, u64::from(header?));
            arena.set_bit(
                obj + cm.hasbits_offset + entry.hasbit_byte,
                entry.hasbit_mask,
            );
        }
        arena.scratch.accums.truncate(base);
        Ok(())
    }
}

/// Allocates a repeated field's 24-byte header and its element array,
/// writes every byte of both that a reader reads, and returns the header
/// offset. `elems` holds the array's bytes, `width` bytes per element.
fn place_array(arena: &mut DecodeArena, elems: &[u8], width: usize) -> Result<u32, RuntimeError> {
    let count = (elems.len() / width) as u64;
    let header = arena.alloc(REPEATED_HEADER_BYTES as usize)?;
    let data = arena.alloc(elems.len())?;
    arena.write_u64(header, u64::from(data));
    arena.write_u64(header + 8, count);
    arena.write_u64(header + 16, count);
    arena.write_bytes(data, elems);
    Ok(header)
}

/// Bytes consumed skipping an unknown field's payload at `pos` in
/// `frame` — classification identical to `crates/cpu::skip_value`.
fn skip_len(frame: &[u8], pos: usize, wt: WireType) -> Result<usize, RuntimeError> {
    let consumed = match wt {
        WireType::Varint => swar::decode(&frame[pos..])?.1,
        WireType::Bits32 => 4,
        WireType::Bits64 => 8,
        WireType::LengthDelimited => {
            let (len, len_len) = swar::decode(&frame[pos..])?;
            // Oversized declared lengths overflow-check into Truncated here
            // (not LengthOutOfBounds): unknown-field skips never got a
            // bounds verdict in crates/cpu and the fast path must agree.
            len_len
                .checked_add(len as usize)
                .ok_or(WireError::Truncated {
                    offset: frame.len(),
                })?
        }
        WireType::StartGroup | WireType::EndGroup => {
            return Err(RuntimeError::Wire(WireError::InvalidWireType {
                raw: wt.as_raw(),
            }));
        }
    };
    if consumed > frame.len() - pos {
        return Err(RuntimeError::Wire(WireError::Truncated {
            offset: frame.len(),
        }));
    }
    Ok(consumed)
}

/// Decodes a length prefix at `pos`, returning `(payload_offset, len)`
/// bounds-checked against `end` — `crates/cpu::deser_length_prefix`.
/// Inlined into every caller: a string run pays for no call per element.
#[inline(always)]
fn length_prefix(full: &[u8], pos: usize, end: usize) -> Result<(usize, usize), RuntimeError> {
    let (len, len_len) = swar::decode(&full[pos..end])?;
    let payload_off = pos + len_len;
    let remaining = end - payload_off;
    if len > remaining as u64 {
        return Err(RuntimeError::Wire(WireError::LengthOutOfBounds {
            declared: len,
            remaining,
        }));
    }
    Ok((payload_off, len as usize))
}

/// One scalar payload at `pos` in `clamped` (which ends at the enclosing
/// frame or packed-body boundary), returning normalized slot bits and the
/// bytes consumed — `crates/cpu::deser_scalar_element`.
fn scalar_element(
    clamped: &[u8],
    pos: usize,
    entry: &FieldEntry,
) -> Result<(u64, usize), RuntimeError> {
    match entry.op {
        Op::Fixed32 => fixed_element::<4>(clamped, pos),
        Op::Fixed64 => fixed_element::<8>(clamped, pos),
        Op::Bytes | Op::Msg => Err(RuntimeError::WireTypeMismatch {
            field_number: entry.number,
        }),
        op => varint_element(clamped, pos, op),
    }
}

/// A little-endian `N`-byte payload at `pos`, `Truncated` at the end of
/// `clamped` when it does not fit.
#[inline(always)]
fn fixed_element<const N: usize>(clamped: &[u8], pos: usize) -> Result<(u64, usize), RuntimeError> {
    match clamped.get(pos..pos + N) {
        Some(bytes) => Ok((le::<N>(bytes), N)),
        None => Err(RuntimeError::Wire(WireError::Truncated {
            offset: clamped.len(),
        })),
    }
}

/// A varint payload at `pos`, normalized into slot bits for `op`.
#[inline(always)]
fn varint_element(clamped: &[u8], pos: usize, op: Op) -> Result<(u64, usize), RuntimeError> {
    let (raw, n) = swar::decode(&clamped[pos..])?;
    Ok((decode_bits(op, raw), n))
}

/// A string or bytes element at `pos`, as its packed (offset, len) word.
#[inline(always)]
fn bytes_element(clamped: &[u8], pos: usize) -> Result<(u64, usize), RuntimeError> {
    let (payload_off, len) = length_prefix(clamped, pos, clamped.len())?;
    Ok((pack_str(payload_off, len), payload_off + len - pos))
}

/// Decodes a run of one repeated scalar, string or bytes field into
/// `elems`, each element appended at its arena width.
///
/// With a `key`, the run is unpacked: the element at `pos`, then one more
/// each time the next bytes equal `key`, the raw key bytes that opened the
/// run. Bytes are compared, not key values, so an overlong encoding of the
/// same key ends the run and goes back through the frame's main loop.
/// Without one, the run is a packed body that fills `clamped` from `pos`.
/// Returns the position after the run.
///
/// The op match sits outside the loop: each arm is a loop of its own,
/// specialised to the op's width. Kept out of line: inlined into the frame's main loop, it measured about
/// 12% slower on ml-features decode and 3–5% slower on the chain suites.
#[inline(never)]
fn decode_run(
    op: Op,
    clamped: &[u8],
    pos: usize,
    key: Option<&[u8]>,
    elems: &mut Vec<u8>,
) -> Result<usize, RuntimeError> {
    match op {
        Op::Fixed32 => run::<4>(clamped, pos, key, elems, fixed_element::<4>),
        Op::Fixed64 => run::<8>(clamped, pos, key, elems, fixed_element::<8>),
        Op::Bytes => run::<8>(clamped, pos, key, elems, bytes_element),
        Op::VarintRaw => run::<8>(clamped, pos, key, elems, |c, p| {
            varint_element(c, p, Op::VarintRaw)
        }),
        Op::VarintI32 => run::<4>(clamped, pos, key, elems, |c, p| {
            varint_element(c, p, Op::VarintI32)
        }),
        Op::VarintU32 => run::<4>(clamped, pos, key, elems, |c, p| {
            varint_element(c, p, Op::VarintU32)
        }),
        Op::VarintBool => run::<1>(clamped, pos, key, elems, |c, p| {
            varint_element(c, p, Op::VarintBool)
        }),
        Op::VarintZig32 => run::<4>(clamped, pos, key, elems, |c, p| {
            varint_element(c, p, Op::VarintZig32)
        }),
        Op::VarintZig64 => run::<8>(clamped, pos, key, elems, |c, p| {
            varint_element(c, p, Op::VarintZig64)
        }),
        Op::Msg => unreachable!("sub-message runs recurse through the main loop"),
    }
}

/// The loop behind [`decode_run`] for one element decoder whose elements
/// are `W` bytes wide in the arena.
#[inline(always)]
fn run<const W: usize>(
    clamped: &[u8],
    mut pos: usize,
    key: Option<&[u8]>,
    elems: &mut Vec<u8>,
    element: impl Fn(&[u8], usize) -> Result<(u64, usize), RuntimeError>,
) -> Result<usize, RuntimeError> {
    loop {
        let (word, n) = element(clamped, pos)?;
        elems.extend_from_slice(&word.to_le_bytes()[..W]);
        pos += n;
        let more = match key {
            None => pos < clamped.len(),
            Some(key) => {
                let follows = clamped
                    .get(pos..pos + key.len())
                    .is_some_and(|next| next.iter().zip(key).all(|(a, b)| a == b));
                if follows {
                    pos += key.len();
                }
                follows
            }
        };
        if !more {
            return Ok(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_runtime::reference;
    use protoacc_schema::SchemaBuilder;

    fn test_schema() -> (Schema, MessageId, MessageId) {
        let mut b = SchemaBuilder::new();
        let inner = b.declare("Inner");
        b.message(inner)
            .optional("id", FieldType::UInt64, 1)
            .optional("label", FieldType::String, 2)
            .repeated("marks", FieldType::UInt32, 3);
        let root = b.declare("Root");
        b.message(root)
            .optional("a", FieldType::Int32, 1)
            .optional("b", FieldType::SInt64, 2)
            .optional("name", FieldType::String, 3)
            .optional("blob", FieldType::Bytes, 4)
            .optional("sub", FieldType::Message(inner), 5)
            .repeated("subs", FieldType::Message(inner), 6)
            .packed("nums", FieldType::SInt32, 7)
            .repeated("tags", FieldType::String, 8)
            .optional("f32", FieldType::Fixed32, 9)
            .optional("f64", FieldType::SFixed64, 10)
            .optional("flag", FieldType::Bool, 11)
            .packed("doubles", FieldType::Double, 12);
        (b.build().unwrap(), root, inner)
    }

    fn sample(root: MessageId, inner: MessageId) -> MessageValue {
        let mut sub = MessageValue::new(inner);
        sub.set_unchecked(1, Value::UInt64(77));
        sub.set_unchecked(2, Value::Str("inner".into()));
        let mut m = MessageValue::new(root);
        m.set_unchecked(1, Value::Int32(-42));
        m.set_unchecked(2, Value::SInt64(i64::MIN));
        m.set_unchecked(3, Value::Str("hello".into()));
        m.set_unchecked(4, Value::Bytes(vec![0, 159, 146, 150]));
        m.set_unchecked(5, Value::Message(sub.clone()));
        m.set_repeated(6, vec![Value::Message(sub.clone()), Value::Message(sub)]);
        m.set_repeated(
            7,
            vec![
                Value::SInt32(i32::MIN),
                Value::SInt32(-1),
                Value::SInt32(0),
                Value::SInt32(i32::MAX),
            ],
        );
        m.set_repeated(8, vec![Value::Str("x".into()), Value::Str(String::new())]);
        m.set_unchecked(9, Value::Fixed32(0xdead_beef));
        m.set_unchecked(10, Value::SFixed64(-5));
        m.set_unchecked(11, Value::Bool(true));
        m.set_repeated(12, vec![Value::Double(-0.0), Value::Double(1.5e300)]);
        m
    }

    #[test]
    fn decode_round_trips_through_arena_and_back() {
        let (schema, root, inner) = test_schema();
        let codec = FastCodec::new(&schema);
        let m = sample(root, inner);
        let wire = reference::encode(&m, &schema).unwrap();
        let mut arena = DecodeArena::new();
        let obj = codec.decode(root, &wire, &mut arena).unwrap();
        let back = codec.to_value(root, &wire, &arena, obj);
        assert!(m.bits_eq(&back), "decoded tree differs");
        let re = codec.encode_decoded(root, &wire, &arena, obj);
        assert_eq!(re, wire, "arena re-serialization differs");
    }

    /// Regression (divergence sweep): a packed element whose varint carries
    /// a continuation bit into the byte *after* the packed body must be
    /// Truncated, not completed from the next field's bytes.
    #[test]
    fn packed_element_is_clamped_to_the_declared_body() {
        let (schema, root, _) = test_schema();
        let codec = FastCodec::new(&schema);
        // Field 7 (packed sint32): key 0x3a, len 1, body [0x96 = continuation
        // set], then a perfectly valid field 1 varint afterward.
        let bytes = [0x3a, 0x01, 0x96, 0x08, 0x05];
        let mut arena = DecodeArena::new();
        let err = codec.decode(root, &bytes, &mut arena).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Wire(WireError::Truncated { .. })),
            "{err:?}"
        );
    }

    /// Regression (divergence sweep): empty packed body decodes to an
    /// *absent* field, matching crates/cpu's accumulator semantics.
    #[test]
    fn empty_packed_body_leaves_field_absent() {
        let (schema, root, _) = test_schema();
        let codec = FastCodec::new(&schema);
        let bytes = [0x3a, 0x00];
        let mut arena = DecodeArena::new();
        let obj = codec.decode(root, &bytes, &mut arena).unwrap();
        let back = codec.to_value(root, &bytes, &arena, obj);
        assert!(back.get(7).is_none(), "empty packed body must stay absent");
    }

    /// Regression (divergence sweep): zigzag extremes round-trip bit-exactly
    /// through the 32-bit slot truncation.
    #[test]
    fn zigzag_extremes_round_trip() {
        let (schema, root, _) = test_schema();
        let codec = FastCodec::new(&schema);
        for v in [i32::MIN, -1, 0, 1, i32::MAX] {
            let mut m = MessageValue::new(root);
            m.set_repeated(7, vec![Value::SInt32(v)]);
            let wire = reference::encode(&m, &schema).unwrap();
            let mut arena = DecodeArena::new();
            let obj = codec.decode(root, &wire, &mut arena).unwrap();
            assert!(
                m.bits_eq(&codec.to_value(root, &wire, &arena, obj)),
                "sint32 {v}"
            );
            assert_eq!(
                codec.encode_decoded(root, &wire, &arena, obj),
                wire,
                "sint32 {v}"
            );
        }
        for v in [i64::MIN, -1, 0, i64::MAX] {
            let mut m = MessageValue::new(root);
            m.set_unchecked(2, Value::SInt64(v));
            let wire = reference::encode(&m, &schema).unwrap();
            let mut arena = DecodeArena::new();
            let obj = codec.decode(root, &wire, &mut arena).unwrap();
            assert!(
                m.bits_eq(&codec.to_value(root, &wire, &arena, obj)),
                "sint64 {v}"
            );
            assert_eq!(
                codec.encode_decoded(root, &wire, &arena, obj),
                wire,
                "sint64 {v}"
            );
        }
    }

    #[test]
    fn singular_submessage_is_last_one_wins() {
        let (schema, root, inner) = test_schema();
        let codec = FastCodec::new(&schema);
        let mut first = MessageValue::new(inner);
        first.set_unchecked(1, Value::UInt64(1));
        let mut second = MessageValue::new(inner);
        second.set_unchecked(2, Value::Str("two".into()));
        let mut m1 = MessageValue::new(root);
        m1.set_unchecked(5, Value::Message(first));
        let mut m2 = MessageValue::new(root);
        m2.set_unchecked(5, Value::Message(second.clone()));
        let mut wire = reference::encode(&m1, &schema).unwrap();
        wire.extend_from_slice(&reference::encode(&m2, &schema).unwrap());
        let mut arena = DecodeArena::new();
        let obj = codec.decode(root, &wire, &mut arena).unwrap();
        let back = codec.to_value(root, &wire, &arena, obj);
        let expected = {
            let mut m = MessageValue::new(root);
            m.set_unchecked(5, Value::Message(second));
            m
        };
        assert!(expected.bits_eq(&back), "second arrival must win, no merge");
    }

    /// A decode that fails with accumulators open at two depths hands every
    /// element buffer back; later decodes reuse them instead of allocating.
    #[test]
    fn error_path_returns_scratch_to_the_arena() {
        let (schema, root, inner) = test_schema();
        let codec = FastCodec::new(&schema);
        let wire = reference::encode(&sample(root, inner), &schema).unwrap();
        let mut arena = DecodeArena::new();
        codec.decode(root, &wire, &mut arena).unwrap();
        assert!(arena.scratch.accums.is_empty());
        let pooled = arena.scratch.pool.len();
        assert!(pooled > 0, "repeated fields must leave buffers in the pool");
        // Root: a `tags` run open; then a `subs` element (field 6) whose
        // Inner body opens a `marks` run and ends in a cut varint.
        let mut bad = vec![0x42, 0x01, b'x', 0x42, 0x00];
        bad.extend_from_slice(&[0x32, 0x04, 0x18, 0x01, 0x18, 0x96]);
        let err = codec.decode(root, &bad, &mut arena).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Wire(WireError::Truncated { .. })),
            "{err:?}"
        );
        assert!(
            arena.scratch.accums.is_empty(),
            "error left accumulators open"
        );
        assert_eq!(
            arena.scratch.pool.len(),
            pooled,
            "error lost pooled buffers"
        );
        for _ in 0..3 {
            codec.decode(root, &wire, &mut arena).unwrap();
            assert_eq!(arena.scratch.pool.len(), pooled, "steady state must reuse");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let mut b = SchemaBuilder::new();
        let node = b.declare("Node");
        b.message(node)
            .optional("next", FieldType::Message(node), 1);
        let schema = b.build().unwrap();
        let codec = FastCodec::new(&schema);
        // 150 nested frames: key 0x0a + length prefix each.
        let mut wire = Vec::new();
        for _ in 0..150 {
            let mut next = vec![0x0a];
            protoacc_wire::varint::encode(wire.len() as u64, &mut next);
            next.extend_from_slice(&wire);
            wire = next;
        }
        let mut arena = DecodeArena::new();
        let err = codec.decode(node, &wire, &mut arena).unwrap_err();
        assert!(matches!(err, RuntimeError::DepthExceeded { .. }), "{err:?}");
    }

    #[test]
    fn unknown_fields_are_skipped_and_groups_rejected() {
        let (schema, root, _) = test_schema();
        let codec = FastCodec::new(&schema);
        // Unknown field 100 (varint), then known field 1.
        let mut wire = Vec::new();
        protoacc_wire::varint::encode(100 << 3, &mut wire);
        wire.push(0x7f);
        wire.extend_from_slice(&[0x08, 0x05]);
        let mut arena = DecodeArena::new();
        let obj = codec.decode(root, &wire, &mut arena).unwrap();
        let back = codec.to_value(root, &wire, &arena, obj);
        assert_eq!(back.get_single(1), Some(&Value::Int32(5)));
        // Unknown field with a group wire type is InvalidWireType.
        let mut wire = Vec::new();
        protoacc_wire::varint::encode(100 << 3 | 3, &mut wire);
        let err = codec.decode(root, &wire, &mut arena).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Wire(WireError::InvalidWireType { .. })),
            "{err:?}"
        );
    }
}
