type t = {
  n : int;
  k : int;
  generator : Galois.Matrix.t;
  rows : Galois.Gf.t array array  (* the generator's rows *)
}

exception Insufficient_fragments of { needed : int; got : int }

let make ~n ~k =
  if k < 1 || k > n || n > 255 then
    invalid_arg
      (Printf.sprintf "Rs_vandermonde.make: invalid parameters n=%d k=%d" n k);
  let generator = Galois.Matrix.vandermonde ~rows:n ~cols:k in
  { n; k; generator; rows = Array.init n (Galois.Matrix.row generator) }

let n t = t.n
let k t = t.k

(* Row-major encode into a single backing buffer: the framed value is
   transposed into k column-contiguous scratch columns (their own
   buffer, since every output row reads all of them), and each coded
   fragment is one row sweep of the generator ([Kernel.apply_rows8],
   byte or chunk tables by fragment size), written directly into its
   slice of the shared backing. Fragments are views into the backing,
   so an encode allocates one payload buffer total (see DESIGN.md
   "Word-sliced kernels & zero-copy framing"). Large values shard the
   stripe range across domains. *)
let encode ?domains t value =
  let framed = Splitter.frame ~k:t.k value in
  let stripes = Bytes.length framed / t.k in
  let cols_buf = Bytes.create (t.k * stripes) in
  Kernel.split_cols_into ~k:t.k ~bps:1 framed ~dst:cols_buf ~doff:0;
  let srcs = Array.make t.k cols_buf in
  let soffs = Array.init t.k (fun j -> j * stripes) in
  let backing = Bytes.create (t.n * stripes) in
  Kernel.apply_rows8 ?domains ~rows:t.rows ~srcs ~soffs ~dst:backing ~doff:0
    ~len:stripes ();
  Array.init t.n (fun i ->
      Fragment.view ~index:i ~buf:backing ~off:(i * stripes) ~len:stripes)

(* Pick the first [k] fragments with distinct, in-range indices and a
   common size. *)
let select_distinct t frags =
  let seen = Array.make t.n false in
  let selected = ref [] in
  let count = ref 0 in
  List.iter
    (fun f ->
      let i = Fragment.index f in
      if i < 0 || i >= t.n then
        invalid_arg
          (Printf.sprintf "Rs_vandermonde.decode: index %d out of range" i);
      if !count < t.k && not seen.(i) then begin
        seen.(i) <- true;
        selected := f :: !selected;
        incr count
      end)
    frags;
  if !count < t.k then
    raise (Insufficient_fragments { needed = t.k; got = !count });
  let selected = Array.of_list (List.rev !selected) in
  let size = Fragment.size selected.(0) in
  Array.iter
    (fun f ->
      if Fragment.size f <> size then
        invalid_arg "Rs_vandermonde.decode: fragment sizes differ")
    selected;
  selected

(* Decode k data columns from the selected fragment views, then
   interleave header and value ranges straight out of the columns:
   no merged framed buffer, no unframe copy. *)
let decode ?domains t frags =
  let selected = select_distinct t frags in
  let stripes = Fragment.size selected.(0) in
  let indices = Array.map Fragment.index selected in
  let sub = Galois.Matrix.select_rows t.generator indices in
  let inverse = Galois.Matrix.invert sub in
  let inv_rows = Array.init t.k (Galois.Matrix.row inverse) in
  let srcs = Array.map Fragment.buf selected in
  let soffs = Array.map Fragment.off selected in
  (* Fragment payloads are already column-contiguous views; sweep the
     inverse matrix row-major into fresh columns. *)
  let cols_buf = Bytes.create (t.k * stripes) in
  Kernel.apply_rows8 ?domains ~rows:inv_rows ~srcs ~soffs ~dst:cols_buf
    ~doff:0 ~len:stripes ();
  let bufs = Array.make t.k cols_buf in
  let offs = Array.init t.k (fun j -> j * stripes) in
  Splitter.extract ~k:t.k ~bps:1 ~bufs ~offs ~col_len:stripes

(* Incremental parity update: encoding is linear over the framed bytes,
   so enc(new) = enc(old) xor enc(delta) where delta is zero outside
   the edited stripes. Only the stripes covering the patch see any
   field arithmetic; everything else is one backing blit. *)
let update ?domains t ~fragments ~value ~pos patch =
  Rs_update.update ?domains ~n:t.n ~k:t.k
    ~rows:t.rows
    ~fragments ~value ~pos patch
