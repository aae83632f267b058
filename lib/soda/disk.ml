module Fragment = Erasure.Fragment
module Tag = Protocol.Tag

(* A word-wide multiplicative hash of the payload view, mixed with the
   fragment index (so a fragment swapped for another coordinate's bytes
   also fails verification) and the length. Each 8-byte word splits
   into two 32-bit halves, since an OCaml int holds only 63 bits; each
   half goes through its own lane, [h <- (h xor half) * odd], and the
   < 8 tail bytes through the low lane. A step is a bijection in [h]
   for a fixed half and injective in the half for a fixed [h], and the
   final mix is a bijection in each lane, so flipping any single bit of
   the payload always changes the checksum. Pure integer arithmetic:
   checksumming draws no randomness and sends nothing, so enabling it
   never perturbs a simulation trace. *)
let mul_lo = 0x1fd3eca2d2b1ba6d
let mul_hi = 0x2545f4914f6cdd1d

let checksum fragment =
  let buf = Fragment.buf fragment
  and off = Fragment.off fragment
  and len = Fragment.size fragment in
  let lo = ref ((0x811c9dc5 lxor Fragment.index fragment) * mul_lo) in
  let hi = ref ((0x01000193 lxor len) * mul_hi) in
  let words = len / 8 in
  for w = 0 to words - 1 do
    let x = Bytes.get_int64_le buf (off + (8 * w)) in
    lo := (!lo lxor (Int64.to_int x land 0xFFFF_FFFF)) * mul_lo;
    hi := (!hi lxor Int64.to_int (Int64.shift_right_logical x 32)) * mul_hi
  done;
  let tail = ref 0 in
  for i = off + len - 1 downto off + (8 * words) do
    tail := (!tail lsl 8) lor Char.code (Bytes.get buf i)
  done;
  let h = ((!lo lxor !tail) * mul_lo) lxor (!hi * mul_lo) in
  let h = (h lxor (h lsr 29)) * mul_hi in
  h lxor (h lsr 32)

type t = {
  mutable tag : Tag.t;
  mutable fragment : Fragment.t;
  mutable sum : int;
  mutable quarantined : bool
}

let create ~tag ~fragment =
  { tag; fragment; sum = checksum fragment; quarantined = false }

let store t ~tag ~fragment =
  t.tag <- tag;
  t.fragment <- fragment;
  t.sum <- checksum fragment;
  t.quarantined <- false

let tag t = t.tag
let fragment_unchecked t = t.fragment
let quarantined t = t.quarantined
let verify t = checksum t.fragment = t.sum

let read t =
  if t.quarantined then `Corrupt
  else if verify t then `Ok t.fragment
  else begin
    t.quarantined <- true;
    `Corrupt
  end

let rot t ~seed = t.fragment <- Fragment.corrupt t.fragment ~seed
