(* Differential tests for the table-driven codec kernel: every codec's
   row-major, table-driven encode/decode must agree byte-for-byte with
   a straightforward stripe-major reference built on [Gf.mul_slow]
   (the shift-and-add multiplier — independent of the log/exp AND the
   product tables). The reference mirrors the pre-kernel
   implementations of the four Reed-Solomon variants. *)

module Gf = Galois.Gf
module Gf16 = Galois.Gf16
module Splitter = Erasure.Splitter
module Fragment = Erasure.Fragment
module Kernel = Erasure.Kernel

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Slow fields: table-free multiplication throughout. *)

module SlowGf : Galois.Field.S with type t = int = struct
  include Galois.Gf

  let mul = Galois.Gf.mul_slow
  let div a b = Galois.Gf.mul_slow a (Galois.Gf.inv b)
end

module SlowGf16 : Galois.Field.S with type t = int = struct
  include Galois.Gf16

  let mul = Galois.Gf16.mul_slow
  let div a b = Galois.Gf16.mul_slow a (Galois.Gf16.inv b)
end

module SlowMatrix = Galois.Matrix_gen.Make (SlowGf)
module SlowMatrix16 = Galois.Matrix_gen.Make (SlowGf16)
module SlowPoly = Galois.Poly_gen.Make (SlowGf)

(* ------------------------------------------------------------------ *)
(* Reference encoders/decoders: stripe-major triple loops, one symbol
   at a time, exactly like the seed implementations. *)

let get8 buf i = Char.code (Bytes.get buf i)
let set8 buf i v = Bytes.set buf i (Char.chr v)
let get16 buf i = Bytes.get_uint16_be buf (2 * i)
let set16 buf i v = Bytes.set_uint16_be buf (2 * i) v

(* Apply an [n x k] matrix (given as rows) stripe by stripe. *)
let ref_matrix_encode ~mul ~get ~set ~bps rows ~k framed =
  let n = Array.length rows in
  let stripes = Bytes.length framed / (k * bps) in
  Array.init n (fun i ->
      let out = Bytes.create (stripes * bps) in
      let row = rows.(i) in
      for s = 0 to stripes - 1 do
        let acc = ref 0 in
        for j = 0 to k - 1 do
          acc := !acc lxor mul row.(j) (get framed ((s * k) + j))
        done;
        set out s !acc
      done;
      out)

let ref_matrix_decode ~mul ~get ~set ~bps inv_rows ~k datas stripes =
  let framed = Bytes.create (stripes * k * bps) in
  for s = 0 to stripes - 1 do
    for j = 0 to k - 1 do
      let row = inv_rows.(j) in
      let acc = ref 0 in
      for l = 0 to k - 1 do
        acc := !acc lxor mul row.(l) (get datas.(l) s)
      done;
      set framed ((s * k) + j) !acc
    done
  done;
  framed

let ref_encode_vand ~n ~k value =
  let framed = Splitter.frame ~k value in
  let g = SlowMatrix.vandermonde ~rows:n ~cols:k in
  let rows = Array.init n (SlowMatrix.row g) in
  ref_matrix_encode ~mul:Gf.mul_slow ~get:get8 ~set:set8 ~bps:1 rows ~k framed

let slow_sys_generator ~n ~k =
  let v = SlowMatrix.vandermonde ~rows:n ~cols:k in
  let top = SlowMatrix.select_rows v (Array.init k (fun i -> i)) in
  SlowMatrix.mul v (SlowMatrix.invert top)

let ref_encode_sys ~n ~k value =
  let framed = Splitter.frame ~k value in
  let g = slow_sys_generator ~n ~k in
  let rows = Array.init n (SlowMatrix.row g) in
  ref_matrix_encode ~mul:Gf.mul_slow ~get:get8 ~set:set8 ~bps:1 rows ~k framed

let ref_encode_rs16 ~n ~k value =
  let framed = Splitter.frame ~k:(2 * k) value in
  let g = SlowMatrix16.vandermonde ~rows:n ~cols:k in
  let rows = Array.init n (SlowMatrix16.row g) in
  ref_matrix_encode ~mul:Gf16.mul_slow ~get:get16 ~set:set16 ~bps:2 rows ~k
    framed

(* Systematic BCH-form encode: parity = x^(n-k) M(x) mod g, computed per
   stripe with slow polynomial arithmetic (the seed's encode_stripe). *)
let ref_encode_bch ~n ~k value =
  let parity_len = n - k in
  let g = ref SlowPoly.one in
  for j = 1 to parity_len do
    g := SlowPoly.mul !g (SlowPoly.of_list [ SlowGf.alpha_pow j; SlowGf.one ])
  done;
  let g = !g in
  let framed = Splitter.frame ~k value in
  let stripes = Bytes.length framed / k in
  let outputs = Array.init n (fun _ -> Bytes.create stripes) in
  for s = 0 to stripes - 1 do
    let msg = Array.init k (fun j -> get8 framed ((s * k) + j)) in
    let cw = Array.make n 0 in
    if parity_len = 0 then Array.blit msg 0 cw 0 k
    else begin
      let shifted =
        SlowPoly.of_coeffs
          (Array.init n (fun i ->
               if i < parity_len then 0 else msg.(i - parity_len)))
      in
      let parity = SlowPoly.rem shifted g in
      for i = 0 to parity_len - 1 do
        cw.(i) <- SlowPoly.coeff parity i
      done;
      Array.blit msg 0 cw parity_len k
    end;
    for i = 0 to n - 1 do
      set8 outputs.(i) s cw.(i)
    done
  done;
  outputs

(* ------------------------------------------------------------------ *)
(* Generators *)

let bytes_gen max_len =
  QCheck2.Gen.(string_size (int_range 0 max_len) >|= Bytes.of_string)

(* (n, k, value): n in [2, 12], 1 <= k <= n *)
let nkv_gen =
  QCheck2.Gen.(
    int_range 2 12 >>= fun n ->
    int_range 1 n >>= fun k ->
    bytes_gen 1200 >|= fun v -> (n, k, v))

(* A shuffled choice of exactly [k] distinct fragment indices. *)
let subset_gen ~n k =
  QCheck2.Gen.(
    shuffle_a (Array.init n (fun i -> i)) >|= fun perm -> Array.sub perm 0 k)

let fragments_equal frags refs =
  Array.length frags = Array.length refs
  && Array.for_all2 (fun f r -> Bytes.equal (Fragment.data f) r) frags refs

let pick frags indices =
  Array.to_list (Array.map (fun i -> frags.(i)) indices)

(* ------------------------------------------------------------------ *)
(* Encode differentials *)

let encode_tests =
  [ qtest "vandermonde encode = mul_slow reference" nkv_gen
      (fun (n, k, v) ->
        let code = Erasure.Rs_vandermonde.make ~n ~k in
        fragments_equal (Erasure.Rs_vandermonde.encode code v)
          (ref_encode_vand ~n ~k v));
    qtest "systematic encode = mul_slow reference" nkv_gen
      (fun (n, k, v) ->
        let code = Erasure.Rs_systematic.make ~n ~k in
        fragments_equal (Erasure.Rs_systematic.encode code v)
          (ref_encode_sys ~n ~k v));
    qtest "bch encode = slow-polynomial reference" nkv_gen
      (fun (n, k, v) ->
        let code = Erasure.Rs_bch.make ~n ~k in
        fragments_equal (Erasure.Rs_bch.encode code v) (ref_encode_bch ~n ~k v));
    qtest "rs16 encode = mul_slow reference" nkv_gen
      (fun (n, k, v) ->
        let code = Erasure.Rs16.make ~n ~k in
        fragments_equal (Erasure.Rs16.encode code v) (ref_encode_rs16 ~n ~k v))
  ]

(* ------------------------------------------------------------------ *)
(* Decode differentials: a random k-subset of fragments, decoded both by
   the kernel codec and by slow submatrix inversion. *)

let decode_vand_gen =
  QCheck2.Gen.(
    nkv_gen >>= fun (n, k, v) ->
    subset_gen ~n k >|= fun indices -> (n, k, v, indices))

let decode_tests =
  [ qtest "vandermonde decode (k random fragments) = slow reference"
      decode_vand_gen
      (fun (n, k, v, indices) ->
        let code = Erasure.Rs_vandermonde.make ~n ~k in
        let frags = Erasure.Rs_vandermonde.encode code v in
        let chosen = pick frags indices in
        let decoded = Erasure.Rs_vandermonde.decode code chosen in
        let g = SlowMatrix.vandermonde ~rows:n ~cols:k in
        let inv = SlowMatrix.invert (SlowMatrix.select_rows g indices) in
        let inv_rows = Array.init k (SlowMatrix.row inv) in
        let datas = Array.map Fragment.data (Array.of_list chosen) in
        let stripes = Bytes.length datas.(0) in
        let framed =
          ref_matrix_decode ~mul:Gf.mul_slow ~get:get8 ~set:set8 ~bps:1
            inv_rows ~k datas stripes
        in
        Bytes.equal decoded (Splitter.unframe framed)
        && Bytes.equal decoded v);
    qtest "systematic decode (k random fragments) = slow reference"
      decode_vand_gen
      (fun (n, k, v, indices) ->
        let code = Erasure.Rs_systematic.make ~n ~k in
        let frags = Erasure.Rs_systematic.encode code v in
        let chosen = pick frags indices in
        let decoded = Erasure.Rs_systematic.decode code chosen in
        let g = slow_sys_generator ~n ~k in
        let inv = SlowMatrix.invert (SlowMatrix.select_rows g indices) in
        let inv_rows = Array.init k (SlowMatrix.row inv) in
        let datas = Array.map Fragment.data (Array.of_list chosen) in
        let stripes = Bytes.length datas.(0) in
        let framed =
          ref_matrix_decode ~mul:Gf.mul_slow ~get:get8 ~set:set8 ~bps:1
            inv_rows ~k datas stripes
        in
        Bytes.equal decoded (Splitter.unframe framed)
        && Bytes.equal decoded v);
    qtest "rs16 decode (k random fragments) = slow reference" decode_vand_gen
      (fun (n, k, v, indices) ->
        let code = Erasure.Rs16.make ~n ~k in
        let frags = Erasure.Rs16.encode code v in
        let chosen = pick frags indices in
        let decoded = Erasure.Rs16.decode code chosen in
        let g = SlowMatrix16.vandermonde ~rows:n ~cols:k in
        let inv = SlowMatrix16.invert (SlowMatrix16.select_rows g indices) in
        let inv_rows = Array.init k (SlowMatrix16.row inv) in
        let datas = Array.map Fragment.data (Array.of_list chosen) in
        let stripes = Bytes.length datas.(0) / 2 in
        let framed =
          ref_matrix_decode ~mul:Gf16.mul_slow ~get:get16 ~set:set16 ~bps:2
            inv_rows ~k datas stripes
        in
        Bytes.equal decoded (Splitter.unframe framed)
        && Bytes.equal decoded v)
  ]

(* ------------------------------------------------------------------ *)
(* BCH: random erasure + error patterns within the correction radius. *)

let bch_pattern_gen =
  QCheck2.Gen.(
    int_range 2 12 >>= fun n ->
    int_range 1 n >>= fun k ->
    int_range 0 (n - k) >>= fun erasures ->
    int_range 0 ((n - k - erasures) / 2) >>= fun errors ->
    shuffle_a (Array.init n (fun i -> i)) >>= fun perm ->
    bytes_gen 800 >|= fun v ->
    let erased = Array.sub perm 0 erasures in
    let corrupted = Array.sub perm erasures errors in
    (n, k, v, erased, corrupted))

let bch_tests =
  [ qtest "bch decode corrects random erasure+error patterns"
      bch_pattern_gen
      (fun (n, k, v, erased, corrupted) ->
        let code = Erasure.Rs_bch.make ~n ~k in
        let frags = Erasure.Rs_bch.encode code v in
        let received =
          Array.to_list frags
          |> List.filter (fun f ->
                 not (Array.mem (Fragment.index f) erased))
          |> List.map (fun f ->
                 if Array.mem (Fragment.index f) corrupted then
                   Fragment.corrupt f ~seed:11
                 else f)
        in
        Bytes.equal (Erasure.Rs_bch.decode code received) v);
    qtest ~count:20 "bch16 decode corrects random erasure+error patterns"
      bch_pattern_gen
      (fun (n, k, v, erased, corrupted) ->
        let code = Erasure.Rs_bch16.make ~n ~k in
        let frags = Erasure.Rs_bch16.encode code v in
        let received =
          Array.to_list frags
          |> List.filter (fun f ->
                 not (Array.mem (Fragment.index f) erased))
          |> List.map (fun f ->
                 if Array.mem (Fragment.index f) corrupted then
                   Fragment.corrupt f ~seed:13
                 else f)
        in
        Bytes.equal (Erasure.Rs_bch16.decode code received) v)
  ]

(* ------------------------------------------------------------------ *)
(* BCH decode differential: solve-and-check must return exactly what the
   per-stripe errors-and-erasures loop returns — the same bytes, or the
   same exception with the same message — on any input, inside the
   decoding radius or beyond it. The oracle is that loop as the codec
   ran it on every stripe before solve-and-check (syndromes, Sugiyama,
   Chien, Forney, then unframe), on the codec's own field. *)

type outcome =
  | Value of bytes
  | Insufficient of int * int
  | Failure of string
  | Invalid of string

let pp_outcome = function
  | Value v -> Printf.sprintf "value (%d bytes)" (Bytes.length v)
  | Insufficient (needed, got) -> Printf.sprintf "insufficient %d/%d" got needed
  | Failure m -> "Decode_failure " ^ m
  | Invalid m -> "Invalid_argument " ^ m

module Ref_bch_decode (F : Galois.Field.S with type t = int) (W : sig
  val bps : int
  val get : bytes -> int -> int
  val set : bytes -> int -> int -> unit
end) =
struct
  module Poly = Galois.Poly_gen.Make (F)

  exception Failed of string
  exception Short of int * int

  let syndromes ~n ~k (received : int array) =
    Array.init (n - k) (fun j ->
        let x = F.alpha_pow (j + 1) in
        let acc = ref F.zero in
        for i = n - 1 downto 0 do
          acc := F.add (F.mul !acc x) received.(i)
        done;
        !acc)

  let sugiyama ~two_t ~num_erasures tpoly =
    let r_prev = ref (Poly.monomial two_t F.one) in
    let r_cur = ref tpoly in
    let v_prev = ref Poly.zero in
    let v_cur = ref Poly.one in
    while 2 * Poly.degree !r_cur >= two_t + num_erasures do
      let q, rem = Poly.div_mod !r_prev !r_cur in
      let v_next = Poly.sub !v_prev (Poly.mul q !v_cur) in
      r_prev := !r_cur;
      r_cur := rem;
      v_prev := !v_cur;
      v_cur := v_next
    done;
    (!v_cur, !r_cur)

  let correct_stripe ~n ~k ~gamma ~num_erasures (received : int array) =
    let two_t = n - k in
    let s_poly = Poly.of_coeffs (syndromes ~n ~k received) in
    if not (Poly.is_zero s_poly) || num_erasures > 0 then begin
      let t_poly = Poly.truncate two_t (Poly.mul s_poly gamma) in
      let lambda, omega = sugiyama ~two_t ~num_erasures t_poly in
      if Poly.is_zero lambda || F.is_zero (Poly.coeff lambda 0) then
        raise (Failed "degenerate error locator");
      let xi = Poly.mul lambda gamma in
      let xi' = Poly.derivative xi in
      let found = ref 0 in
      for i = 0 to n - 1 do
        let x_inv = F.alpha_pow (-i) in
        if F.is_zero (Poly.eval xi x_inv) then begin
          incr found;
          let denom = Poly.eval xi' x_inv in
          if F.is_zero denom then raise (Failed "Forney denominator vanished");
          received.(i) <- F.add received.(i) (F.div (Poly.eval omega x_inv) denom)
        end
      done;
      if !found <> Poly.degree xi then
        raise (Failed "error locator has roots outside the code");
      if Array.exists (fun s -> not (F.is_zero s)) (syndromes ~n ~k received)
      then raise (Failed "correction did not produce a codeword")
    end

  let decode_exn ~n ~k frags =
    let present = Array.make n false in
    let datas = Array.make n Bytes.empty in
    let count = ref 0 in
    let size = ref (-1) in
    List.iter
      (fun f ->
        let i = Fragment.index f in
        if i < 0 || i >= n then
          invalid_arg (Printf.sprintf "Rs_bch.decode: index %d out of range" i);
        if not present.(i) then begin
          present.(i) <- true;
          datas.(i) <- Fragment.data f;
          incr count;
          if !size < 0 then size := Bytes.length datas.(i)
          else if Bytes.length datas.(i) <> !size then
            invalid_arg "Rs_bch.decode: fragment sizes differ"
        end)
      frags;
    if !count < k then raise (Short (k, !count));
    if !size mod W.bps <> 0 then
      invalid_arg "Rs_bch.decode: fragment size not a whole symbol count";
    let stripes = !size / W.bps in
    let num_erasures = ref 0 in
    let gamma = ref Poly.one in
    for i = 0 to n - 1 do
      if not present.(i) then begin
        incr num_erasures;
        gamma := Poly.mul !gamma (Poly.of_list [ F.one; F.alpha_pow i ])
      end
    done;
    if !num_erasures > n - k then raise (Failed "more erasures than parity symbols");
    let gamma = !gamma and num_erasures = !num_erasures in
    let framed = Bytes.create (stripes * W.bps * k) in
    let received = Array.make n 0 in
    for s = 0 to stripes - 1 do
      for i = 0 to n - 1 do
        received.(i) <- (if present.(i) then W.get datas.(i) s else 0)
      done;
      correct_stripe ~n ~k ~gamma ~num_erasures received;
      for j = 0 to k - 1 do
        W.set framed ((s * k) + j) received.(n - k + j)
      done
    done;
    Splitter.unframe framed

  let decode ~n ~k frags =
    match decode_exn ~n ~k frags with
    | v -> Value v
    | exception Short (needed, got) -> Insufficient (needed, got)
    | exception Failed m -> Failure m
    | exception Invalid_argument m -> Invalid m
end

module Ref_bch8 =
  Ref_bch_decode
    (Galois.Gf)
    (struct
      let bps = 1
      let get = get8
      let set = set8
    end)

module Ref_bch16 =
  Ref_bch_decode
    (Galois.Gf16)
    (struct
      let bps = 2
      let get = get16
      let set = set16
    end)

(* The codec under test, behind the same outcome type. *)
let bch8_decode ?domains ~n ~k frags =
  let code = Erasure.Rs_bch.make ~n ~k in
  match Erasure.Rs_bch.decode ?domains code frags with
  | v -> Value v
  | exception Erasure.Rs_bch.Insufficient_fragments { needed; got } ->
    Insufficient (needed, got)
  | exception Erasure.Rs_bch.Decode_failure m -> Failure m
  | exception Invalid_argument m -> Invalid m

let bch16_decode ?domains ~n ~k frags =
  let code = Erasure.Rs_bch16.make ~n ~k in
  match Erasure.Rs_bch16.decode ?domains code frags with
  | v -> Value v
  | exception Erasure.Rs_bch16.Insufficient_fragments { needed; got } ->
    Insufficient (needed, got)
  | exception Erasure.Rs_bch16.Decode_failure m -> Failure m
  | exception Invalid_argument m -> Invalid m

(* A received set: erasures (possibly more than n-k, down to fewer than
   k survivors), whole-fragment corruption, sparse per-stripe symbol
   errors at varying coordinates (a random count up to [sparse_max] per
   hit stripe, so many patterns land beyond the radius), a shuffled
   order and sometimes a trailing duplicate index (first one wins). *)
type received_spec = {
  n : int;
  k : int;
  value : bytes;
  erased : int;  (* count, taken from the front of [perm] *)
  whole : int;  (* count, taken after the erased ones *)
  sparse_max : int;
  sparse_pct : int;  (* chance, in percent, that a stripe is hit *)
  noise : int;  (* seed of the sparse-error draws and the shuffle *)
  dup : bool;
  perm : int array
}

let received_gen ~max_len =
  QCheck2.Gen.(
    int_range 1 12 >>= fun n ->
    int_range 1 n >>= fun k ->
    (* mostly within the erasure budget; now and then one past it *)
    frequency [ (9, int_range 0 (n - k)); (1, return (min n (n - k + 1))) ]
    >>= fun erased ->
    int_range 0 (min 2 (n - erased)) >>= fun whole ->
    int_range 0 3 >>= fun sparse_max ->
    oneofl [ 0; 3; 10; 30; 100 ] >>= fun sparse_pct ->
    int >>= fun noise ->
    bool >>= fun dup ->
    shuffle_a (Array.init n (fun i -> i)) >>= fun perm ->
    bytes_gen max_len >|= fun value ->
    { n; k; value; erased; whole; sparse_max; sparse_pct; noise; dup; perm })

let print_spec r =
  Printf.sprintf
    "n=%d k=%d len=%d erased=%d whole=%d sparse_max=%d sparse_pct=%d noise=%d \
     dup=%b perm=[%s]"
    r.n r.k (Bytes.length r.value) r.erased r.whole r.sparse_max r.sparse_pct
    r.noise r.dup
    (String.concat ";" (Array.to_list (Array.map string_of_int r.perm)))

let received_set ~bps (frags : Fragment.t array) r =
  let rng = Random.State.make [| r.noise |] in
  let survivors = Array.sub r.perm r.erased (r.n - r.erased) in
  let datas =
    Array.map
      (fun i ->
        if Array.mem i (Array.sub survivors 0 r.whole) then
          Fragment.data (Fragment.corrupt frags.(i) ~seed:r.noise)
        else Bytes.copy (Fragment.data frags.(i)))
      survivors
  in
  let stripes = Fragment.size frags.(0) / bps in
  if Array.length survivors > 0 && r.sparse_max > 0 then
    for s = 0 to stripes - 1 do
      if Random.State.int rng 100 < r.sparse_pct then
        for _ = 1 to 1 + Random.State.int rng r.sparse_max do
          let d = datas.(Random.State.int rng (Array.length datas)) in
          let b = (bps * s) + Random.State.int rng bps in
          let mask = 1 + Random.State.int rng 255 in
          Bytes.set d b (Char.chr (Char.code (Bytes.get d b) lxor mask))
        done
    done;
  let set =
    Array.to_list
      (Array.mapi (fun j i -> Fragment.make ~index:i ~data:datas.(j)) survivors)
  in
  let set =
    List.map snd
      (List.sort compare
         (List.map (fun f -> (Random.State.bits rng, f)) set))
  in
  if r.dup && survivors <> [||] then
    set @ [ frags.(survivors.(Random.State.int rng (Array.length survivors))) ]
  else set

let bch_diff ~bps ~encode ~decode ~reference r =
  let frags = encode ~n:r.n ~k:r.k r.value in
  let set = received_set ~bps frags r in
  let expect = reference ~n:r.n ~k:r.k set in
  List.for_all
    (fun domains ->
      let got = decode ~domains ~n:r.n ~k:r.k set in
      got = expect
      || QCheck2.Test.fail_reportf "domains=%d: got %s, oracle %s" domains
           (pp_outcome got) (pp_outcome expect))
    [ 1; 3 ]

let bch8_diff =
  bch_diff ~bps:1
    ~encode:(fun ~n ~k v -> Erasure.Rs_bch.encode (Erasure.Rs_bch.make ~n ~k) v)
    ~decode:(fun ~domains -> bch8_decode ~domains)
    ~reference:Ref_bch8.decode

let bch16_diff =
  bch_diff ~bps:2
    ~encode:(fun ~n ~k v ->
      Erasure.Rs_bch16.encode (Erasure.Rs_bch16.make ~n ~k) v)
    ~decode:(fun ~domains -> bch16_decode ~domains)
    ~reference:Ref_bch16.decode

let bch_decode_diff_tests =
  let qtest ~count name ~max_len prop =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count ~name ~print:print_spec
         (received_gen ~max_len) prop)
  in
  [ qtest ~count:1000 "rs-bch decode = per-stripe oracle" ~max_len:600 bch8_diff;
    qtest ~count:500 "rs-bch16 decode = per-stripe oracle" ~max_len:600
      bch16_diff;
    (* values long enough that ~domains:3 really shards the sweeps and
       the scalar stripe loop (>= 2 * 4096 stripes) *)
    qtest ~count:6 "rs-bch decode = oracle, sharded sizes" ~max_len:0
      (fun r -> bch8_diff { r with value = Bytes.make (8300 * r.k) 'v' });
    qtest ~count:4 "rs-bch16 decode = oracle, sharded sizes" ~max_len:0
      (fun r -> bch16_diff { r with value = Bytes.make (16600 * r.k) 'w' })
  ]

(* ------------------------------------------------------------------ *)
(* Buffer primitives against mul_slow, symbol by symbol. *)

let buf_tests =
  [ qtest ~count:100 "Gf.muladd_buf = mul_slow per byte"
      QCheck2.Gen.(
        triple (int_range 0 255) (bytes_gen 300) (int_range 0 40))
      (fun (c, src, off) ->
        let off = min off (Bytes.length src) in
        let len = Bytes.length src - off in
        let dst0 = Bytes.init (Bytes.length src) (fun i -> Char.chr ((i * 7) land 0xff)) in
        let dst = Bytes.copy dst0 in
        Gf.muladd_buf (Gf.mul_table c) ~src ~dst ~off ~len;
        let ok = ref true in
        for i = 0 to Bytes.length src - 1 do
          let expect =
            if i >= off && i < off + len then
              Char.code (Bytes.get dst0 i)
              lxor Gf.mul_slow c (Char.code (Bytes.get src i))
            else Char.code (Bytes.get dst0 i)
          in
          if Char.code (Bytes.get dst i) <> expect then ok := false
        done;
        !ok);
    qtest ~count:100 "Gf16.mul_buf/muladd_buf = mul_slow per symbol"
      QCheck2.Gen.(
        pair (int_range 0 65535) (string_size (int_range 0 150) >|= Bytes.of_string))
      (fun (c, raw) ->
        let symbols = Bytes.length raw / 2 in
        let src = Bytes.sub raw 0 (2 * symbols) in
        let dst = Bytes.make (2 * symbols) '\x00' in
        let t = Gf16.mul_tables c in
        Gf16.mul_buf t ~src ~dst ~off:0 ~len:symbols;
        let ok = ref true in
        for s = 0 to symbols - 1 do
          if
            Bytes.get_uint16_be dst (2 * s)
            <> Gf16.mul_slow c (Bytes.get_uint16_be src (2 * s))
          then ok := false
        done;
        (* muladd on top of mul doubles every term: must zero out *)
        Gf16.muladd_buf t ~src ~dst ~off:0 ~len:symbols;
        for s = 0 to symbols - 1 do
          if Bytes.get_uint16_be dst (2 * s) <> 0 then ok := false
        done;
        !ok);
    qtest ~count:150 "Gf word sweeps = mul_slow (unaligned off/len)"
      QCheck2.Gen.(
        quad (int_range 0 255) (bytes_gen 200) (int_range 0 17) (int_range 0 17))
      (fun (c, raw, soff, doff) ->
        (* independent, deliberately unaligned offsets into src and dst *)
        let wt = Gf.wtable c in
        let soff = min soff (Bytes.length raw) in
        let len = max 0 (Bytes.length raw - max soff doff) in
        let src = raw in
        let dst0 =
          Bytes.init (doff + len) (fun i -> Char.chr ((i * 11) land 0xff))
        in
        let dst = Bytes.copy dst0 in
        Gf.muladd_buf_w wt ~src ~soff ~dst ~doff ~len;
        let ok = ref true in
        for i = 0 to len - 1 do
          let expect =
            Char.code (Bytes.get dst0 (doff + i))
            lxor Gf.mul_slow c (Char.code (Bytes.get src (soff + i)))
          in
          if Char.code (Bytes.get dst (doff + i)) <> expect then ok := false
        done;
        (* mul overwrites *)
        Gf.mul_buf_w wt ~src ~soff ~dst ~doff ~len;
        for i = 0 to len - 1 do
          if
            Char.code (Bytes.get dst (doff + i))
            <> Gf.mul_slow c (Char.code (Bytes.get src (soff + i)))
          then ok := false
        done;
        (* the byte-table view sweeps: muladd on top of mul zeroes out *)
        let t = Gf.mul_table c in
        Gf.mul_buf_v t ~src ~soff ~dst ~doff ~len;
        for i = 0 to len - 1 do
          if
            Char.code (Bytes.get dst (doff + i))
            <> Gf.mul_slow c (Char.code (Bytes.get src (soff + i)))
          then ok := false
        done;
        Gf.muladd_buf_v t ~src ~soff ~dst ~doff ~len;
        for i = 0 to len - 1 do
          if Bytes.get dst (doff + i) <> '\000' then ok := false
        done;
        !ok);
    qtest ~count:100 "Gf muladd_buf_w aliased src == dst"
      QCheck2.Gen.(
        triple (int_range 0 255) (bytes_gen 120) (int_range 0 9))
      (fun (c, raw, off) ->
        let off = min off (Bytes.length raw) in
        let len = Bytes.length raw - off in
        let buf = Bytes.copy raw in
        Gf.muladd_buf_w (Gf.wtable c) ~src:buf ~soff:off ~dst:buf ~doff:off ~len;
        let ok = ref true in
        for i = off to off + len - 1 do
          let x = Char.code (Bytes.get raw i) in
          if Char.code (Bytes.get buf i) <> x lxor Gf.mul_slow c x then
            ok := false
        done;
        !ok);
    qtest ~count:100 "Wops.xor_into = bytewise xor (unaligned)"
      QCheck2.Gen.(
        triple (bytes_gen 200) (int_range 0 13) (int_range 0 13))
      (fun (raw, soff, doff) ->
        let soff = min soff (Bytes.length raw) in
        let len = max 0 (Bytes.length raw - max soff doff) in
        let dst0 =
          Bytes.init (doff + len) (fun i -> Char.chr ((i * 29) land 0xff))
        in
        let dst = Bytes.copy dst0 in
        Galois.Wops.xor_into ~src:raw ~soff ~dst ~doff ~len;
        let ok = ref true in
        for i = 0 to len - 1 do
          if
            Char.code (Bytes.get dst (doff + i))
            <> Char.code (Bytes.get dst0 (doff + i))
               lxor Char.code (Bytes.get raw (soff + i))
          then ok := false
        done;
        (* or_xor_into accumulates dst0 lor (dst xor raw) *)
        let acc = Bytes.copy dst0 in
        Galois.Wops.or_xor_into ~a:dst ~aoff:doff ~b:raw ~boff:soff ~dst:acc
          ~doff ~len;
        for i = 0 to len - 1 do
          if
            Char.code (Bytes.get acc (doff + i))
            <> Char.code (Bytes.get dst0 (doff + i))
               lor (Char.code (Bytes.get dst (doff + i))
                   lxor Char.code (Bytes.get raw (soff + i)))
          then ok := false
        done;
        !ok);
    qtest ~count:60 "Gf16 word sweeps = mul_slow per symbol"
      QCheck2.Gen.(
        triple (int_range 0 65535)
          (string_size (int_range 0 160) >|= Bytes.of_string)
          (int_range 0 5))
      (fun (c, raw, symoff) ->
        let wt = Gf16.wtable c in
        let symbols = max 0 ((Bytes.length raw / 2) - symoff) in
        let soff = 2 * symoff and len = 2 * symbols in
        let dst0 =
          Bytes.init (2 * symbols) (fun i -> Char.chr ((i * 23) land 0xff))
        in
        let dst = Bytes.copy dst0 in
        Gf16.muladd_buf_w wt ~src:raw ~soff ~dst ~doff:0 ~len;
        let ok = ref true in
        for s = 0 to symbols - 1 do
          let expect =
            Bytes.get_uint16_be dst0 (2 * s)
            lxor Gf16.mul_slow c (Bytes.get_uint16_be raw (soff + (2 * s)))
          in
          if Bytes.get_uint16_be dst (2 * s) <> expect then ok := false
        done;
        Gf16.mul_buf_w wt ~src:raw ~soff ~dst ~doff:0 ~len;
        for s = 0 to symbols - 1 do
          if
            Bytes.get_uint16_be dst (2 * s)
            <> Gf16.mul_slow c (Bytes.get_uint16_be raw (soff + (2 * s)))
          then ok := false
        done;
        !ok);
    qtest ~count:100 "split_cols/merge_cols round-trip"
      QCheck2.Gen.(
        triple (int_range 1 10) (int_range 1 3) (int_range 0 60))
      (fun (k, bps, stripes) ->
        let framed =
          Bytes.init (k * bps * stripes) (fun i -> Char.chr ((i * 13) land 0xff))
        in
        let cols = Kernel.split_cols ~k ~bps framed in
        Bytes.equal (Kernel.merge_cols ~k ~bps cols) framed)
  ]

(* ------------------------------------------------------------------ *)
(* Domain-parallel paths must produce identical bytes. *)

let parallel_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30 ~name:"parallel_rows covers [0, n) exactly"
         QCheck2.Gen.(pair (int_range 0 200) (int_range 1 5))
         (fun (n, domains) ->
           let hits = Array.make (max n 1) 0 in
           Kernel.parallel_rows ~domains ~min_chunk:1 ~n (fun ~lo ~len ->
               for i = lo to lo + len - 1 do
                 (* chunks are disjoint: no two domains touch the same i *)
                 hits.(i) <- hits.(i) + 1
               done);
           n = 0 || Array.for_all (fun h -> h = 1) hits));
    Alcotest.test_case "multi-domain encode/decode = single-domain" `Quick
      (fun () ->
        (* big enough that parallel_rows really shards: stripes >= 2 * 4096 *)
        let value =
          Bytes.init 70_000 (fun i -> Char.chr ((i * 31) land 0xff))
        in
        let check codec =
          let seq = Erasure.Mds.encode codec value in
          let par = Erasure.Mds.encode ~domains:3 codec value in
          Alcotest.(check bool)
            (Erasure.Mds.name codec ^ " encode identical")
            true
            (Array.for_all2 Fragment.equal seq par);
          let survivors =
            Array.to_list par
            |> List.filteri (fun i _ ->
                   i >= Erasure.Mds.n codec - Erasure.Mds.k codec)
          in
          Alcotest.(check bool)
            (Erasure.Mds.name codec ^ " decode identical")
            true
            (Bytes.equal (Erasure.Mds.decode ~domains:3 codec survivors) value)
        in
        check (Erasure.Mds.rs_vandermonde ~n:6 ~k:4);
        check (Erasure.Mds.rs_systematic ~n:6 ~k:4);
        check (Erasure.Mds.rs_bch ~n:6 ~k:4);
        check (Erasure.Mds.rs16 ~n:6 ~k:4))
  ]

(* ------------------------------------------------------------------ *)
(* Fused GF(2^8) rows: [Kernel.apply_row8_v] folds up to four terms per
   pass over dst. The oracle is the one-sweep-per-term loop it
   replaced, copied here. *)

let per_term_row8 ~coeffs ~tables ~srcs ~soffs ~dst ~doff ~off ~len =
  let first = ref true in
  for j = 0 to Array.length coeffs - 1 do
    let c = coeffs.(j) in
    if c <> 0 then begin
      let src = srcs.(j) and soff = soffs.(j) + off in
      let doff = doff + off in
      if !first then
        if c = 1 then Bytes.blit src soff dst doff len
        else Gf.mul_buf_v tables.(j) ~src ~soff ~dst ~doff ~len
      else if c = 1 then Galois.Wops.xor_into ~src ~soff ~dst ~doff ~len
      else Gf.muladd_buf_v tables.(j) ~src ~soff ~dst ~doff ~len;
      first := false
    end
  done;
  if !first then Bytes.fill dst (doff + off) len '\000'

(* (coeffs, len, soffs, doff, off, shared, seed): 0-12 terms, zero and
   unit coefficients likely, lengths 0, 1, 7, odd and up to 5000. With
   [shared] every source is a view into one buffer. *)
let row8_gen =
  QCheck2.Gen.(
    let* terms = int_range 0 12 in
    let* coeffs =
      array_size (return terms)
        (frequency [ (2, return 0); (2, return 1); (6, int_range 2 255) ])
    in
    let* len =
      oneof
        [ oneofl [ 0; 1; 7 ];
          map (fun h -> (2 * h) + 1) (int_range 0 100);
          int_range 0 5000
        ]
    in
    let* soffs = array_size (return terms) (int_range 0 9) in
    let* doff = int_range 0 9 in
    let* off = int_range 0 5 in
    let* shared = bool in
    let* seed = int_range 0 1_000_000 in
    return (coeffs, len, soffs, doff, off, shared, seed))

let random_bytes rng len = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256))

let row8_diff (coeffs, len, soffs, doff, off, shared, seed) =
  let rng = Random.State.make [| seed |] in
  let terms = Array.length coeffs in
  let srcs, soffs =
    if shared then begin
      (* term j's view starts at its own offset within one buffer *)
      let span = off + len + 9 in
      let buf = random_bytes rng ((terms * span) + 1) in
      (Array.make terms buf, Array.mapi (fun j o -> (j * span) + o) soffs)
    end
    else (Array.map (fun o -> random_bytes rng (o + off + len + 3)) soffs, soffs)
  in
  let tables = Array.map Gf.mul_table coeffs in
  let dst0 = random_bytes rng (doff + off + len + 5) in
  let fused = Bytes.copy dst0 and oracle = Bytes.copy dst0 in
  Kernel.apply_row8_v ~coeffs ~tables ~srcs ~soffs ~dst:fused ~doff ~off ~len;
  per_term_row8 ~coeffs ~tables ~srcs ~soffs ~dst:oracle ~doff ~off ~len;
  Bytes.equal fused oracle

(* Encode and decode straddling [Kernel.short_sweep], the sweep length
   where rs-vand and rs-sys switch from byte tables to chunk tables:
   fragments of short_sweep - 2 .. short_sweep + 1 bytes. *)
let crossover_gen =
  QCheck2.Gen.(
    let* n = int_range 2 12 in
    let* k = int_range 1 (min n 8) in
    let* sweep = int_range (Kernel.short_sweep - 2) (Kernel.short_sweep + 1) in
    let* slack = int_range 0 (k - 1) in
    let* seed = int_range 0 1_000_000 in
    let* indices = subset_gen ~n k in
    let len = (sweep * k) - Splitter.header_len - slack in
    return (n, k, len, seed, indices))

let crossover_diff ~encode ~decode ~reference ~slow_generator
    (n, k, len, seed, indices) =
  let v = random_bytes (Random.State.make [| seed |]) len in
  let frags = encode v in
  let chosen = pick frags indices in
  let inv =
    SlowMatrix.invert (SlowMatrix.select_rows (slow_generator ~n ~k) indices)
  in
  let datas = Array.map Fragment.data (Array.of_list chosen) in
  let framed =
    ref_matrix_decode ~mul:Gf.mul_slow ~get:get8 ~set:set8 ~bps:1
      (Array.init k (SlowMatrix.row inv))
      ~k datas (Bytes.length datas.(0))
  in
  let decoded = decode chosen in
  fragments_equal frags (reference ~n ~k v)
  && Bytes.equal decoded (Splitter.unframe framed)
  && Bytes.equal decoded v

let row8_tests =
  [ qtest ~count:600 "apply_row8_v (fused) = per-term sweeps" row8_gen row8_diff;
    qtest ~count:12 "rs-vand encode/decode across the short-sweep crossover"
      crossover_gen
      (fun ((n, k, _, _, _) as case) ->
        let code = Erasure.Rs_vandermonde.make ~n ~k in
        crossover_diff ~encode:(Erasure.Rs_vandermonde.encode code)
          ~decode:(Erasure.Rs_vandermonde.decode code) ~reference:ref_encode_vand
          ~slow_generator:(fun ~n ~k -> SlowMatrix.vandermonde ~rows:n ~cols:k)
          case);
    qtest ~count:12 "rs-sys encode/decode across the short-sweep crossover"
      crossover_gen
      (fun ((n, k, _, _, _) as case) ->
        let code = Erasure.Rs_systematic.make ~n ~k in
        crossover_diff ~encode:(Erasure.Rs_systematic.encode code)
          ~decode:(Erasure.Rs_systematic.decode code) ~reference:ref_encode_sys
          ~slow_generator:slow_sys_generator case)
  ]

let () =
  Alcotest.run "kernel"
    [ ("encode-differential", encode_tests);
      ("decode-differential", decode_tests);
      ("bch-patterns", bch_tests);
      ("bch-decode-oracle", bch_decode_diff_tests);
      ("buffer-primitives", buf_tests);
      ("fused-rows", row8_tests);
      ("parallel", parallel_tests)
    ]
