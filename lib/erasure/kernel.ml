(* Buffer-level Reed-Solomon kernel; see kernel.mli. *)

(* U1 audit: the unchecked byte accesses in the transpose/merge loops
   run over index ranges validated once per call at the function head
   (every loop bound is derived from [k * col_len = stripes * row_bytes]
   after the explicit length checks). Build with the [soda-debug]
   profile to compile in the corresponding [assert]s; release strips
   them with [-noassert]. *)
[@@@lint.allow
  "U1: every loop bound derives from k * col_len = stripes * row_bytes \
   after the explicit length checks; soda-debug compiles in the asserts"]

module Gf = Galois.Gf
module Gf16 = Galois.Gf16

type table = Bytes.t
type table16 = Gf16.mul_tables

let mul_table = Gf.mul_table
let mul_buf = Gf.mul_buf
let muladd_buf = Gf.muladd_buf
let row_tables16 coeffs = Array.map Gf16.mul_tables coeffs

type wtable = Gf.wtable
type wtable16 = Gf16.wtable

(* Zero coefficients are skipped by the row loops, so their table slot
   is never read; [wtable 0] keeps the arrays dense and is built (once,
   globally) only if a matrix actually contains a zero. *)
let row_wtables coeffs = Array.map Gf.wtable coeffs
let row_wtables16 coeffs = Array.map Gf16.wtable coeffs

(* ------------------------------------------------------------------ *)
(* Stripe-major <-> row-major transposition.

   The framed value interleaves the k code columns byte by byte
   (stripe s occupies framed[s*k*bps, (s+1)*k*bps)); the kernel sweeps
   want each column contiguous. bps = 1 and 2 (the two symbol widths in
   use) get dedicated loops; unsafe accesses are covered by the length
   checks at entry. *)

let split_cols ~k ~bps framed =
  if k <= 0 || bps <= 0 then invalid_arg "Kernel.split_cols: bad dimensions";
  let row_bytes = k * bps in
  let len = Bytes.length framed in
  if len mod row_bytes <> 0 then
    invalid_arg "Kernel.split_cols: buffer not a whole number of stripes";
  let stripes = len / row_bytes in
  Array.init k (fun j ->
      let col = Bytes.create (stripes * bps) in
      (match bps with
      | 1 ->
        for s = 0 to stripes - 1 do
          Bytes.unsafe_set col s (Bytes.unsafe_get framed ((s * k) + j))
        done
      | 2 ->
        for s = 0 to stripes - 1 do
          let src = 2 * ((s * k) + j) in
          Bytes.unsafe_set col (2 * s) (Bytes.unsafe_get framed src);
          Bytes.unsafe_set col ((2 * s) + 1) (Bytes.unsafe_get framed (src + 1))
        done
      | _ ->
        for s = 0 to stripes - 1 do
          Bytes.blit framed (bps * ((s * k) + j)) col (s * bps) bps
        done);
      col)

let merge_cols ~k ~bps cols =
  if k <= 0 || bps <= 0 then invalid_arg "Kernel.merge_cols: bad dimensions";
  if Array.length cols <> k then
    invalid_arg "Kernel.merge_cols: expected k column buffers";
  let col_len = Bytes.length cols.(0) in
  Array.iter
    (fun c ->
      if Bytes.length c <> col_len then
        invalid_arg "Kernel.merge_cols: ragged columns")
    cols;
  if col_len mod bps <> 0 then
    invalid_arg "Kernel.merge_cols: column not a whole number of symbols";
  let stripes = col_len / bps in
  let framed = Bytes.create (stripes * k * bps) in
  for j = 0 to k - 1 do
    let col = cols.(j) in
    match bps with
    | 1 ->
      for s = 0 to stripes - 1 do
        Bytes.unsafe_set framed ((s * k) + j) (Bytes.unsafe_get col s)
      done
    | 2 ->
      for s = 0 to stripes - 1 do
        let dst = 2 * ((s * k) + j) in
        Bytes.unsafe_set framed dst (Bytes.unsafe_get col (2 * s));
        Bytes.unsafe_set framed (dst + 1) (Bytes.unsafe_get col ((2 * s) + 1))
      done
    | _ ->
      for s = 0 to stripes - 1 do
        Bytes.blit col (s * bps) framed (bps * ((s * k) + j)) bps
      done
  done;
  framed

(* ------------------------------------------------------------------ *)
(* View-aware transposition: the zero-copy encode path writes all n
   fragment payloads into one backing buffer and the decode path reads
   fragment payloads in place, so the transposes below take explicit
   destination/source offsets. *)

(* Transpose [framed] into [k] columns laid out contiguously in [dst]:
   column [j] occupies [doff + j*stripes*bps, doff + (j+1)*stripes*bps).
   The systematic codecs point fragment views straight at these
   columns. *)
let split_cols_into ~k ~bps framed ~dst ~doff =
  if k <= 0 || bps <= 0 then
    invalid_arg "Kernel.split_cols_into: bad dimensions";
  let row_bytes = k * bps in
  let len = Bytes.length framed in
  if len mod row_bytes <> 0 then
    invalid_arg "Kernel.split_cols_into: buffer not a whole number of stripes";
  let stripes = len / row_bytes in
  if doff < 0 || doff + len > Bytes.length dst then
    invalid_arg "Kernel.split_cols_into: columns exceed destination";
  let col_bytes = stripes * bps in
  for j = 0 to k - 1 do
    let base = doff + (j * col_bytes) in
    match bps with
    | 1 ->
      for s = 0 to stripes - 1 do
        Bytes.unsafe_set dst (base + s) (Bytes.unsafe_get framed ((s * k) + j))
      done
    | 2 ->
      for s = 0 to stripes - 1 do
        let src = 2 * ((s * k) + j) in
        Bytes.unsafe_set dst (base + (2 * s)) (Bytes.unsafe_get framed src);
        Bytes.unsafe_set dst
          (base + (2 * s) + 1)
          (Bytes.unsafe_get framed (src + 1))
      done
    | _ ->
      for s = 0 to stripes - 1 do
        Bytes.blit framed (bps * ((s * k) + j)) dst (base + (s * bps)) bps
      done
  done

(* Interleave byte range [lo, lo + len) of the (virtual) stripe-major
   framed layout from k column views straight into [dst] at [doff]: the
   decode path uses it to materialize the value without building the
   whole framed buffer first ([lo] skips the length header, [len] stops
   before the padding). Column [j] of stripe [s] lives at byte
   [offs.(j) + s*bps .. +bps) of [bufs.(j)]. *)
let merge_cols_sub ~k ~bps ~bufs ~offs ~col_len ~lo ~len ~dst ~doff =
  if k <= 0 || bps <= 0 then invalid_arg "Kernel.merge_cols_sub: bad dimensions";
  if Array.length bufs <> k || Array.length offs <> k then
    invalid_arg "Kernel.merge_cols_sub: expected k column views";
  if col_len mod bps <> 0 then
    invalid_arg "Kernel.merge_cols_sub: column not a whole number of symbols";
  let row_bytes = k * bps in
  let total = col_len / bps * row_bytes in
  if lo < 0 || len < 0 || lo + len > total then
    invalid_arg "Kernel.merge_cols_sub: range outside the framed layout";
  if doff < 0 || doff + len > Bytes.length dst then
    invalid_arg "Kernel.merge_cols_sub: range outside dst";
  Array.iteri
    (fun j buf ->
      if offs.(j) < 0 || offs.(j) + col_len > Bytes.length buf then
        invalid_arg "Kernel.merge_cols_sub: column view outside its buffer")
    bufs;
  (* Iterate per column so each source streams sequentially. Byte [b] of
     column [j]'s stripe [s] sits at framed position
     [s*row_bytes + j*bps + b]. *)
  for j = 0 to k - 1 do
    let buf = bufs.(j) and base = offs.(j) in
    for b = 0 to bps - 1 do
      let rem = (j * bps) + b in
      (* positions p = s*row_bytes + rem within [lo, lo+len) *)
      let s0 = if lo <= rem then 0 else (lo - rem + row_bytes - 1) / row_bytes in
      let s1 =
        let hi = lo + len in
        if hi <= rem then 0 else (hi - rem + row_bytes - 1) / row_bytes
      in
      for s = s0 to s1 - 1 do
        Bytes.unsafe_set dst
          (doff + (s * row_bytes) + rem - lo)
          (Bytes.unsafe_get buf (base + (s * bps) + b))
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Row application:
   dst[doff+off ..] = sum_j coeffs.(j) * srcs.(j)[soffs.(j)+off ..].

   One sweep per non-zero coefficient, through the field's [mul]/[muladd]
   for the table flavour at hand: a leading unit coefficient is a blit, a
   later one an 8-byte-wide xor, and an all-zero row zero-fills (dst
   buffers come from Bytes.create, whose contents are unspecified). The
   word-sliced chunk-table sweeps move 8 bytes per load and win on long
   sweeps with few coefficients on a quiet heap; the 256-entry tables
   stay in L1 and win once many coefficients share the cache with a
   large heap — GF(2^8) rows on them take the fused sweep below instead.
   Offsets and [len] are bytes; the field sweeps validate their own
   ranges. *)

let apply_terms ~fname ~mul ~muladd ~coeffs ~tables ~srcs ~soffs ~dst ~doff
    ~off ~len =
  let terms = Array.length coeffs in
  if
    Array.length srcs <> terms
    || Array.length tables <> terms
    || Array.length soffs <> terms
  then invalid_arg (fname ^ ": coefficient/source count mismatch");
  let first = ref true in
  for j = 0 to terms - 1 do
    let c = coeffs.(j) in
    if c <> 0 then begin
      let src = srcs.(j) and soff = soffs.(j) + off in
      let doff = doff + off in
      if !first then
        if c = 1 then begin
          if
            soff < 0 || len < 0
            || soff + len > Bytes.length src
            || doff + len > Bytes.length dst
          then invalid_arg (fname ^ ": range outside buffers");
          Bytes.blit src soff dst doff len
        end
        else mul tables.(j) ~src ~soff ~dst ~doff ~len
      else if c = 1 then Galois.Wops.xor_into ~src ~soff ~dst ~doff ~len
      else muladd tables.(j) ~src ~soff ~dst ~doff ~len;
      first := false
    end
  done;
  if !first then Bytes.fill dst (doff + off) len '\000'

(* The entry points are eta-expanded: a partial application of
   [apply_terms] would allocate a closure on every call. *)
let apply_row_v ~coeffs ~wtables ~srcs ~soffs ~dst ~doff ~off ~len =
  apply_terms ~fname:"Kernel.apply_row_v" ~mul:Gf.mul_buf_w
    ~muladd:Gf.muladd_buf_w ~coeffs ~tables:wtables ~srcs ~soffs ~dst ~doff
    ~off ~len

(* ------------------------------------------------------------------ *)
(* Fused GF(2^8) byte-table rows.

   [apply_row8_v] folds up to four non-zero, non-unit terms into each
   pass over dst, so dst is loaded and stored once per four terms
   instead of once per term; the four 256-entry tables together take
   1 KiB and stay in L1. Unit terms keep their word-wide paths (a
   leading one is a blit, later ones an xor), zero terms are skipped
   and an all-zero row zero-fills. Field addition is xor, so the
   grouping leaves every output byte as the per-term sweeps left it. *)

let[@inline] [@lint.allow
               "U1: only fused8 calls it, on indices and tables \
                apply_row8_v has checked"] prod table src i =
  Char.code (Bytes.unsafe_get table (Char.code (Bytes.unsafe_get src i)))

(* One pass over [len] bytes of dst at [doff], folding the terms at
   indices [a] and [b] and — when [c] / [d] are not -1 — [c] and [d]
   ([d] only with [c]). [add] xors into dst instead of overwriting
   it. *)
let[@lint.allow
     "U1: apply_row8_v checks every table for 256 entries and every \
      source and dst range for [off, off+len) before its first pass"]
    fused8 ~add ~tables ~srcs ~soffs ~off ~dst ~doff ~len a b c d =
  (* the loops index dst; [o*] is each source's offset from it *)
  let ta = tables.(a) and sa = srcs.(a) and oa = soffs.(a) + off - doff in
  let tb = tables.(b) and sb = srcs.(b) and ob = soffs.(b) + off - doff in
  (* [add] is tested outside the loops: a test per byte cost ~10%;
     local helper closures would allocate on every call *)
  if c < 0 then
    if add then
      for i = doff to doff + len - 1 do
        let p = prod ta sa (oa + i) lxor prod tb sb (ob + i) in
        Bytes.unsafe_set dst i
          (Char.unsafe_chr (p lxor Char.code (Bytes.unsafe_get dst i)))
      done
    else
      for i = doff to doff + len - 1 do
        let p = prod ta sa (oa + i) lxor prod tb sb (ob + i) in
        Bytes.unsafe_set dst i (Char.unsafe_chr p)
      done
  else begin
    let tc = tables.(c) and sc = srcs.(c) and oc = soffs.(c) + off - doff in
    if d < 0 then
      if add then
        for i = doff to doff + len - 1 do
          let p =
            prod ta sa (oa + i) lxor prod tb sb (ob + i)
            lxor prod tc sc (oc + i)
          in
          Bytes.unsafe_set dst i
            (Char.unsafe_chr (p lxor Char.code (Bytes.unsafe_get dst i)))
        done
      else
        for i = doff to doff + len - 1 do
          let p =
            prod ta sa (oa + i) lxor prod tb sb (ob + i)
            lxor prod tc sc (oc + i)
          in
          Bytes.unsafe_set dst i (Char.unsafe_chr p)
        done
    else begin
      let td = tables.(d) and sd = srcs.(d) and od = soffs.(d) + off - doff in
      if add then
        for i = doff to doff + len - 1 do
          let p =
            prod ta sa (oa + i) lxor prod tb sb (ob + i)
            lxor prod tc sc (oc + i) lxor prod td sd (od + i)
          in
          Bytes.unsafe_set dst i
            (Char.unsafe_chr (p lxor Char.code (Bytes.unsafe_get dst i)))
        done
      else
        for i = doff to doff + len - 1 do
          let p =
            prod ta sa (oa + i) lxor prod tb sb (ob + i)
            lxor prod tc sc (oc + i) lxor prod td sd (od + i)
          in
          Bytes.unsafe_set dst i (Char.unsafe_chr p)
        done
    end
  end

(* The first index >= [j] whose coefficient is neither 0 nor 1, or
   [Array.length coeffs]. *)
let rec next_general coeffs j =
  if j < Array.length coeffs && coeffs.(j) <= 1 then next_general coeffs (j + 1)
  else j

(* Every general term from index [j] on, four to a pass; the first pass
   overwrites dst unless [add]. *)
let rec fused_passes ~add ~coeffs ~tables ~srcs ~soffs ~off ~dst ~doff ~len j =
  let terms = Array.length coeffs in
  let a = next_general coeffs j in
  if a < terms then begin
    let b = next_general coeffs (a + 1) in
    if b = terms then begin
      let src = srcs.(a) and soff = soffs.(a) + off in
      if add then Gf.muladd_buf_v tables.(a) ~src ~soff ~dst ~doff ~len
      else Gf.mul_buf_v tables.(a) ~src ~soff ~dst ~doff ~len
    end
    else
      let c = next_general coeffs (b + 1) in
      let d = if c = terms then terms else next_general coeffs (c + 1) in
      fused8 ~add ~tables ~srcs ~soffs ~off ~dst ~doff ~len a b
        (if c = terms then -1 else c)
        (if d = terms then -1 else d);
      if d < terms then
        fused_passes ~add:true ~coeffs ~tables ~srcs ~soffs ~off ~dst ~doff
          ~len (d + 1)
  end

let apply_row8_v ~coeffs ~tables ~srcs ~soffs ~dst ~doff ~off ~len =
  let fname = "Kernel.apply_row8_v" in
  let terms = Array.length coeffs in
  if
    Array.length srcs <> terms
    || Array.length tables <> terms
    || Array.length soffs <> terms
  then invalid_arg (fname ^ ": coefficient/source count mismatch");
  let doff = doff + off in
  if len < 0 || doff < 0 || doff + len > Bytes.length dst then
    invalid_arg (fname ^ ": range outside buffers");
  let first = ref (-1) in
  for j = terms - 1 downto 0 do
    let c = coeffs.(j) in
    if c <> 0 then begin
      let soff = soffs.(j) + off in
      if soff < 0 || soff + len > Bytes.length srcs.(j) then
        invalid_arg (fname ^ ": range outside buffers");
      if c <> 1 && Bytes.length tables.(j) <> Gf.order then
        invalid_arg (fname ^ ": table must have 256 entries");
      first := j
    end
  done;
  let first = !first in
  if first < 0 then Bytes.fill dst doff len '\000'
  else begin
    let lead_unit = coeffs.(first) = 1 in
    if lead_unit then
      Bytes.blit srcs.(first) (soffs.(first) + off) dst doff len;
    fused_passes ~add:lead_unit ~coeffs ~tables ~srcs ~soffs ~off ~dst ~doff
      ~len first;
    for j = first + 1 to terms - 1 do
      if coeffs.(j) = 1 then
        Galois.Wops.xor_into ~src:srcs.(j) ~soff:(soffs.(j) + off) ~dst ~doff
          ~len
    done
  end

let apply_row16_v ~coeffs ~tables ~srcs ~soffs ~dst ~doff ~off ~len =
  apply_terms ~fname:"Kernel.apply_row16_v" ~mul:Gf16.mul_buf_v
    ~muladd:Gf16.muladd_buf_v ~coeffs ~tables ~srcs ~soffs ~dst ~doff ~off
    ~len

let apply_row16_w ~coeffs ~wtables ~srcs ~soffs ~dst ~doff ~off ~len =
  apply_terms ~fname:"Kernel.apply_row16_w" ~mul:Gf16.mul_buf_w
    ~muladd:Gf16.muladd_buf_w ~coeffs ~tables:wtables ~srcs ~soffs ~dst ~doff
    ~off ~len

(* ------------------------------------------------------------------ *)
(* Domain-parallel striping. *)

let default_min_chunk = 4096

let parallel_rows ?(domains = 1) ?(min_chunk = default_min_chunk) ~n f =
  if n < 0 then invalid_arg "Kernel.parallel_rows: negative range";
  let min_chunk = max 1 min_chunk in
  (* Never spawn a domain for less than [min_chunk] rows of work. *)
  let domains = max 1 (min domains (n / min_chunk)) in
  if n = 0 then ()
  else if domains = 1 then f ~lo:0 ~len:n
  else begin
    let chunk = (n + domains - 1) / domains in
    let failures = Array.make domains None in
    (* E1: each domain's exception is captured in [failures] and
       re-raised after the join below — nothing is swallowed. *)
    let[@lint.allow
         "E1: the catch-all transports the exception to the joining \
          domain, where it is rethrown — nothing is swallowed"] worker d () =
      let lo = d * chunk in
      let len = min chunk (n - lo) in
      if len > 0 then
        try f ~lo ~len with e -> failures.(d) <- Some e
    in
    let spawned =
      List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1)))
    in
    worker 0 ();
    List.iter Domain.join spawned;
    Array.iter (function Some e -> raise e | None -> ()) failures
  end

(* ------------------------------------------------------------------ *)
(* Whole-matrix GF(2^8) sweeps: the table flavour follows the sweep
   length. A chunk table is 128 KiB, so the up to n*k of them one
   encode or decode reads stay cached only on a quiet heap; inside a
   deployment a short sweep meets most of its chunk-table lookups as
   cache misses, while the 256-byte tables of all 256 coefficients fit
   in L2 together. Measured (DESIGN.md "Codec kernel"): byte tables win
   in deployments at every sweep length up to 2 KiB, chunk tables win in
   an isolated encode/decode loop from ~128 B. 2 KiB is the crossover:
   the longest sweep measured in a deployment that still keeps every
   committed 16 KiB+ codec row (2049-byte sweeps and up) on chunk
   tables. Sweeps this short never shard ([parallel_rows] needs
   8192). *)

let short_sweep = 2048

let apply_rows8 ?domains ~rows ~srcs ~soffs ~dst ~doff ~len () =
  if len < short_sweep then begin
    for i = 0 to Array.length rows - 1 do
      let coeffs = rows.(i) in
      apply_row8_v ~coeffs ~tables:(Array.map Gf.mul_table coeffs) ~srcs ~soffs
        ~dst ~doff:(doff + (i * len)) ~off:0 ~len
    done
  end
  else begin
    let wtables = Array.map row_wtables rows in
    parallel_rows ?domains ~n:len (fun ~lo ~len:l ->
        for i = 0 to Array.length rows - 1 do
          apply_row_v ~coeffs:rows.(i) ~wtables:wtables.(i) ~srcs ~soffs ~dst
            ~doff:(doff + (i * len)) ~off:lo ~len:l
        done)
  end
