module Matrix = Galois.Matrix

type t = {
  n : int;
  k : int;
  generator : Matrix.t;
  parity_rows : Galois.Gf.t array array  (* generator rows k .. n-1 *)
}

exception Insufficient_fragments of { needed : int; got : int }

let make ~n ~k =
  if k < 1 || k > n || n > 255 then
    invalid_arg
      (Printf.sprintf "Rs_systematic.make: invalid parameters n=%d k=%d" n k);
  let vandermonde = Matrix.vandermonde ~rows:n ~cols:k in
  let top = Matrix.select_rows vandermonde (Array.init k (fun i -> i)) in
  (* top is square Vandermonde with distinct points: always invertible *)
  let generator = Matrix.mul vandermonde (Matrix.invert top) in
  let parity_rows = Array.init (n - k) (fun i -> Matrix.row generator (k + i)) in
  { n; k; generator; parity_rows }

let n t = t.n
let k t = t.k

(* Single-backing encode: the top k generator rows are the identity, so
   transposing the framed value straight into the front of the backing
   buffer yields the k systematic fragments in place; only the parity
   rows sweep, reading the data columns out of the same backing. All n
   fragments are views into it. *)
let encode ?domains t value =
  let framed = Splitter.frame ~k:t.k value in
  let stripes = Bytes.length framed / t.k in
  let backing = Bytes.create (t.n * stripes) in
  Kernel.split_cols_into ~k:t.k ~bps:1 framed ~dst:backing ~doff:0;
  let srcs = Array.make t.k backing in
  let soffs = Array.init t.k (fun j -> j * stripes) in
  Kernel.apply_rows8 ?domains ~rows:t.parity_rows ~srcs ~soffs ~dst:backing
    ~doff:(t.k * stripes) ~len:stripes ();
  Array.init t.n (fun i ->
      Fragment.view ~index:i ~buf:backing ~off:(i * stripes) ~len:stripes)

let select_distinct t frags =
  let seen = Array.make t.n false in
  let selected = ref [] in
  let count = ref 0 in
  List.iter
    (fun f ->
      let i = Fragment.index f in
      if i < 0 || i >= t.n then
        invalid_arg
          (Printf.sprintf "Rs_systematic.decode: index %d out of range" i);
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
        invalid_arg "Rs_systematic.decode: fragment sizes differ")
    selected;
  selected

let decode ?domains t frags =
  let selected = select_distinct t frags in
  let stripes = Fragment.size selected.(0) in
  let all_systematic =
    Array.for_all (fun f -> Fragment.index f < t.k) selected
  in
  if all_systematic then begin
    (* Fast path: the fragment views ARE the data columns — extract the
       value straight out of them, no decode sweep and no framed
       buffer. *)
    let bufs = Array.make t.k Bytes.empty in
    let offs = Array.make t.k 0 in
    Array.iter
      (fun f ->
        bufs.(Fragment.index f) <- Fragment.buf f;
        offs.(Fragment.index f) <- Fragment.off f)
      selected;
    Splitter.extract ~k:t.k ~bps:1 ~bufs ~offs ~col_len:stripes
  end
  else begin
    let indices = Array.map Fragment.index selected in
    let sub = Matrix.select_rows t.generator indices in
    let inverse = Matrix.invert sub in
    let inv_rows = Array.init t.k (Matrix.row inverse) in
    let srcs = Array.map Fragment.buf selected in
    let soffs = Array.map Fragment.off selected in
    let cols_buf = Bytes.create (t.k * stripes) in
    Kernel.apply_rows8 ?domains ~rows:inv_rows ~srcs ~soffs ~dst:cols_buf
      ~doff:0 ~len:stripes ();
    let bufs = Array.make t.k cols_buf in
    let offs = Array.init t.k (fun j -> j * stripes) in
    Splitter.extract ~k:t.k ~bps:1 ~bufs ~offs ~col_len:stripes
  end

let update ?domains t ~fragments ~value ~pos patch =
  Rs_update.update ?domains ~n:t.n ~k:t.k
    ~rows:(Array.init t.n (Matrix.row t.generator))
    ~fragments ~value ~pos patch
