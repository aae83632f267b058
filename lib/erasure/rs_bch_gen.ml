(* Field-generic systematic Reed-Solomon with errors-and-erasures
   decoding; documented in rs_bch.mli. [Rs_bch] instantiates this at
   GF(2^8) (one-byte symbols), [Rs_bch16] at GF(2^16) (two-byte
   symbols, for code lengths beyond 255). *)

module Make (Sym : Symbol.S) = struct
  module F = Sym.F
  module Poly = Galois.Poly_gen.Make (F)

  module Matrix = Galois.Matrix_gen.Make (F)

  type t = { n : int; k : int; parity_rows : F.t array array }


  exception Insufficient_fragments of { needed : int; got : int }
  exception Decode_failure of string

  (* g(x) = prod_{j=1}^{n-k} (x - alpha^j); narrow-sense BCH roots. *)
  let generator_poly ~n ~k =
    let g = ref Poly.one in
    for j = 1 to n - k do
      g := Poly.mul !g (Poly.of_list [ F.alpha_pow j; F.one ])
    done;
    !g

  (* Systematic encoding — message symbol j at coefficient x^(n-k+j),
     parity at coefficients 0 .. n-k-1 — is linear in the message, so
     parity symbol i is a fixed row of coefficients over the message:
     parity_rows.(i).(j) = coeff i of (x^(n-k+j) mod g). Precomputing
     the matrix turns per-stripe polynomial division into table-driven
     buffer sweeps. *)
  let parity_matrix ~n ~k g =
    let parity_len = n - k in
    let rems =
      Array.init k (fun j ->
          Poly.rem (Poly.monomial (parity_len + j) F.one) g)
    in
    Array.init parity_len (fun i ->
        Array.init k (fun j -> Poly.coeff rems.(j) i))

  let make ~n ~k =
    if k < 1 || k > n || n > Sym.max_n then
      invalid_arg
        (Printf.sprintf "Rs_bch.make: invalid parameters n=%d k=%d" n k);
    { n; k; parity_rows = parity_matrix ~n ~k (generator_poly ~n ~k) }

  let n t = t.n
  let k t = t.k
  let bps = Sym.bytes_per_symbol

  (* Generator row of coordinate [p]: a parity row for [p < n-k], the
     unit vector e_j for the systematic coordinate [n-k+j]. *)
  let generator_row t p =
    let parity_len = t.n - t.k in
    if p < parity_len then t.parity_rows.(p)
    else Array.init t.k (fun j -> if j = p - parity_len then F.one else F.zero)

  let encode ?domains t value =
    let framed = Splitter.frame ~k:(bps * t.k) value in
    let stripes = Bytes.length framed / (bps * t.k) in
    let parity_len = t.n - t.k in
    let cols = Kernel.split_cols ~k:t.k ~bps framed in
    (* fragment parity_len + j is exactly message column j *)
    let outputs =
      Array.init t.n (fun i ->
          if i < parity_len then Bytes.create (bps * stripes)
          else cols.(i - parity_len))
    in
    let soffs = Array.make t.k 0 in
    let tables = Array.map Sym.row_tables t.parity_rows in
    Kernel.parallel_rows ?domains ~n:stripes (fun ~lo ~len ->
        for i = 0 to parity_len - 1 do
          Sym.apply_row ~coeffs:t.parity_rows.(i) ~tables:tables.(i)
            ~srcs:cols ~soffs ~dst:outputs.(i) ~doff:0 ~off:(bps * lo)
            ~len:(bps * len)
        done);
    Array.init t.n (fun i -> Fragment.make ~index:i ~data:outputs.(i))

  let update ?domains t ~fragments ~value ~pos patch =
    Sym.update ?domains ~n:t.n ~k:t.k
      ~rows:(Array.init t.n (generator_row t))
      ~fragments ~value ~pos patch

  let syndromes t (received : int array) =
    let parity_len = t.n - t.k in
    Array.init parity_len (fun j ->
        (* S_{j+1} = r(alpha^{j+1}) *)
        let x = F.alpha_pow (j + 1) in
        let acc = ref F.zero in
        for i = t.n - 1 downto 0 do
          acc := F.add (F.mul !acc x) received.(i)
        done;
        !acc)

  (* Sugiyama's extended-Euclid algorithm on (x^{2t}, modified syndrome),
     stopping when 2*deg(remainder) < 2t + num_erasures. Returns
     (error locator Lambda, evaluator Omega). *)
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

  (* Correct one stripe in place. [received] has n symbols with erased
     positions set to 0. The erasure locator [gamma] and [num_erasures]
     depend only on which fragments are present, so the caller computes
     them once for all stripes. *)
  let correct_stripe t ~gamma ~num_erasures (received : int array) =
    let two_t = t.n - t.k in
    let synd = syndromes t received in
    let s_poly = Poly.of_coeffs synd in
    if not (Poly.is_zero s_poly) || num_erasures > 0 then begin
      let t_poly = Poly.truncate two_t (Poly.mul s_poly gamma) in
      let lambda, omega = sugiyama ~two_t ~num_erasures t_poly in
      if Poly.is_zero lambda || F.is_zero (Poly.coeff lambda 0) then
        raise (Decode_failure "degenerate error locator");
      let xi = Poly.mul lambda gamma in
      let xi' = Poly.derivative xi in
      (* Chien search over the code's positions; every root of Xi must
         land on a valid position, exactly deg(Xi) of them. *)
      let found = ref 0 in
      for i = 0 to t.n - 1 do
        let x_inv = F.alpha_pow (-i) in
        if F.is_zero (Poly.eval xi x_inv) then begin
          incr found;
          let denom = Poly.eval xi' x_inv in
          if F.is_zero denom then
            raise (Decode_failure "Forney denominator vanished");
          let magnitude = F.div (Poly.eval omega x_inv) denom in
          received.(i) <- F.add received.(i) magnitude
        end
      done;
      if !found <> Poly.degree xi then
        raise (Decode_failure "error locator has roots outside the code");
      (* Defensive re-check: the corrected word must be a codeword. *)
      let check = syndromes t received in
      if Array.exists (fun s -> not (F.is_zero s)) check then
        raise (Decode_failure "correction did not produce a codeword")
    end

  (* Byte offset of the first non-zero byte of [buf], if any. *)
  let first_nonzero buf =
    let len = Bytes.length buf in
    let i = ref 0 in
    while !i + 8 <= len && Int64.equal (Bytes.get_int64_ne buf !i) 0L do
      i := !i + 8
    done;
    while !i < len && Bytes.get buf !i = '\000' do
      incr i
    done;
    if !i < len then Some !i else None

  (* Decode by solve and check (DESIGN.md, "BCH decode by solve and
     check"). [solve ~suspect] picks a basis of k present coordinates
     outside [suspect], systematic ones first (their inverse rows are
     units, so they sweep as blits), solves every stripe's message
     through the inverse generator submatrix, re-encodes every other
     present coordinate outside [suspect] and ORs its difference from
     the received bytes into [diff]. A stripe whose [diff] bytes are all
     zero agrees with a codeword c outside [suspect], so the received
     word is within |suspect| errors of c; with 2|suspect| + erasures <=
     n-k, c is the unique codeword in the decoding radius, which is what
     [correct_stripe] returns. Flagged stripes take [correct_stripe], so
     bytes and failures match it exactly. *)
  let decode ?domains t frags =
    let parity_len = t.n - t.k in
    let present = Array.make t.n false in
    let bufs = Array.make t.n Bytes.empty in
    let offs = Array.make t.n 0 in
    let count = ref 0 in
    let size = ref (-1) in
    List.iter
      (fun f ->
        let i = Fragment.index f in
        if i < 0 || i >= t.n then
          invalid_arg (Printf.sprintf "Rs_bch.decode: index %d out of range" i);
        if not present.(i) then begin
          present.(i) <- true;
          bufs.(i) <- Fragment.buf f;
          offs.(i) <- Fragment.off f;
          incr count;
          if !size < 0 then size := Fragment.size f
          else if Fragment.size f <> !size then
            invalid_arg "Rs_bch.decode: fragment sizes differ"
        end)
      frags;
    if !count < t.k then
      raise (Insufficient_fragments { needed = t.k; got = !count });
    let size = !size in
    if size mod bps <> 0 then
      invalid_arg "Rs_bch.decode: fragment size not a whole symbol count";
    let stripes = size / bps in
    let num_erasures = t.n - !count in
    if num_erasures > parity_len then
      raise (Decode_failure "more erasures than parity symbols");
    (* (1 - alpha^i x) per erased i; subtraction = addition in
       characteristic 2. *)
    let gamma = ref Poly.one in
    for i = 0 to t.n - 1 do
      if not present.(i) then
        gamma := Poly.mul !gamma (Poly.of_list [ F.one; F.alpha_pow i ])
    done;
    let gamma = !gamma in
    let cols = Bytes.create (t.k * size) in
    let col_offs = Array.init t.k (fun j -> j * size) in
    let col_srcs = Array.make t.k cols in
    let diff = Bytes.create size in
    let scratch = Bytes.create (if !count > t.k then size else 0) in
    let solve ~suspect =
      let usable =
        List.filter
          (fun p -> present.(p) && not suspect.(p))
          (List.init t.n (fun i -> (i + parity_len) mod t.n))
      in
      let basis = Array.of_list (List.filteri (fun i _ -> i < t.k) usable) in
      (* a check re-encodes its coordinate: a parity row over the
         solved message columns, or a systematic column itself *)
      let checks =
        List.filteri (fun i _ -> i >= t.k) usable
        |> List.map (fun p ->
               if p >= parity_len then (p, None)
               else (p, Some (Sym.row_tables t.parity_rows.(p))))
      in
      let inverse =
        Matrix.invert (Matrix.of_rows (Array.map (generator_row t) basis))
      in
      let inv_rows = Array.init t.k (Matrix.row inverse) in
      let inv_tables = Array.map Sym.row_tables inv_rows in
      let srcs = Array.map (fun p -> bufs.(p)) basis in
      let soffs = Array.map (fun p -> offs.(p)) basis in
      Kernel.parallel_rows ?domains ~n:stripes (fun ~lo ~len ->
          let off = bps * lo and len = bps * len in
          for j = 0 to t.k - 1 do
            Sym.apply_row ~coeffs:inv_rows.(j) ~tables:inv_tables.(j) ~srcs
              ~soffs ~dst:cols ~doff:col_offs.(j) ~off ~len
          done;
          Bytes.fill diff off len '\000';
          List.iter
            (fun (p, tables) ->
              let a, aoff =
                match tables with
                | None -> (cols, col_offs.(p - parity_len) + off)
                | Some tables ->
                  Sym.apply_row ~coeffs:t.parity_rows.(p) ~tables
                    ~srcs:col_srcs ~soffs:col_offs ~dst:scratch ~doff:0 ~off
                    ~len;
                  (scratch, off)
              in
              Galois.Wops.or_xor_into ~a ~aoff ~b:bufs.(p)
                ~boff:(offs.(p) + off) ~dst:diff ~doff:off ~len)
            checks)
    in
    let load received s =
      for i = 0 to t.n - 1 do
        received.(i) <-
          (if present.(i) then Sym.get bufs.(i) (offs.(i) + (bps * s)) else 0)
      done
    in
    solve ~suspect:(Array.make t.n false);
    (* One retry: a wholly corrupt fragment flags every stripe, so take
       the coordinates the scalar decoder changes on the first flagged
       stripe and solve again around them — if the radius allows (which
       a successful Sugiyama run already implies: its stopping rule
       bounds the locator degree v by 2v + erasures <= n-k). *)
    (match first_nonzero diff with
     | None -> ()
     | Some b ->
       let received = Array.make t.n 0 in
       load received (b / bps);
       let original = Array.copy received in
       correct_stripe t ~gamma ~num_erasures received;
       let suspect =
         Array.init t.n (fun i -> present.(i) && received.(i) <> original.(i))
       in
       let errors =
         Array.fold_left (fun c x -> if x then c + 1 else c) 0 suspect
       in
       if (2 * errors) + num_erasures <= parity_len then solve ~suspect);
    (* Stripes still flagged take the scalar decoder, in stripe order. *)
    if Option.is_some (first_nonzero diff) then
      Kernel.parallel_rows ?domains ~n:stripes (fun ~lo ~len ->
          let received = Array.make t.n 0 in
          for s = lo to lo + len - 1 do
            let flagged = ref false in
            for b = bps * s to (bps * s) + bps - 1 do
              if Bytes.get diff b <> '\000' then flagged := true
            done;
            if !flagged then begin
              load received s;
              correct_stripe t ~gamma ~num_erasures received;
              for j = 0 to t.k - 1 do
                Sym.set cols
                  (col_offs.(j) + (bps * s))
                  received.(parity_len + j)
              done
            end
          done);
    Splitter.extract ~k:t.k ~bps ~bufs:col_srcs ~offs:col_offs ~col_len:size
end
