(* Reference probes at a workload's own shape: a raw engine mesh with no
   protocol, the workload's codec at its value size, and the disk
   checksum over one coded element. Each is timed as the median of
   several repetitions. *)

module Engine = Simnet.Engine
module Mds = Erasure.Mds

(* Seconds per call of [f]: the median over [reps] timings of [batch]
   back-to-back calls, so that one timing spans well above the clock's
   resolution. *)
let median_time ?(batch = 1) ~reps f =
  Stats.median
    (List.init reps (fun _ ->
         let t0 = Unix.gettimeofday () in
         for _ = 1 to batch do
           f ()
         done;
         (Unix.gettimeofday () -. t0) /. float_of_int batch))

(* Raw engine at [procs] processes: messages hop between random
   processes under the workloads' delay model. Nanoseconds per event. *)
type hop = Hop of int

let mesh_ns_per_event ~seed ~procs =
  let events = ref 0 in
  let once () =
    let engine = Engine.create ~seed ~delay:Workloads.delay () in
    let pids = Array.init procs (fun i -> Engine.reserve engine ~name:(string_of_int i)) in
    Array.iter
      (fun pid ->
        Engine.set_handler engine pid (fun ctx ~src:_ (Hop i) ->
            if i > 0 then
              Engine.send ctx
                ~dst:pids.(Simnet.Rng.int (Engine.rng_ctx ctx) procs)
                (Hop (i - 1))))
      pids;
    for m = 0 to (4 * procs) - 1 do
      Engine.inject engine ~at:0.0 pids.(m mod procs) (fun ctx ->
          Engine.send ctx ~dst:pids.((m + 1) mod procs) (Hop 2_000))
    done;
    Engine.run engine;
    events := Engine.events_executed engine
  in
  let s = median_time ~reps:5 once in
  s *. 1e9 /. float_of_int !events

type codec = {
  encode_us : float;
  decode_us : float;
  decode_err_us : float;
  alloc_words_per_decode : float;
  decode_ok : bool  (* clean decode returned the value; so did the
                       error path, on an error-correcting codec *)
}

let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let codec ~seed (w : Workloads.t) =
  let code = w.Workloads.codec in
  let value =
    (Workloads.values ~seed ~salt:3 ~len:w.Workloads.value_len ~count:1).(0)
  in
  let batch = max 1 (65_536 / w.Workloads.value_len) and reps = 15 in
  let frags = Mds.encode code value in
  let clean = Array.to_list (Array.sub frags 0 w.Workloads.decode_set) in
  let dirty =
    List.map
      (fun f ->
        if Erasure.Fragment.index f = 0 then Erasure.Fragment.corrupt f ~seed else f)
      clean
  in
  let encode_us = 1e6 *. median_time ~batch ~reps (fun () -> ignore (Mds.encode code value)) in
  let decode_us =
    1e6 *. median_time ~batch ~reps (fun () -> ignore (Mds.decode code clean : bytes))
  in
  (* an error-correcting codec (decoding from more than k elements) must
     recover the value; an erasures-only one decodes the corrupted set
     to garbage, or rejects its garbled length header, at about the
     same cost *)
  let corrects = w.Workloads.decode_set > Mds.k code in
  let err_ok = ref true in
  let decode_err_us =
    1e6
    *. median_time ~batch ~reps (fun () ->
           match Mds.decode code dirty with
           | v -> if corrects && not (Bytes.equal v value) then err_ok := false
           | exception (Mds.Decode_failure _ | Invalid_argument _) ->
             if corrects then err_ok := false)
  in
  Gc.minor ();
  let a0 = alloc_words () in
  let v = Mds.decode code clean in
  Gc.minor ();
  let alloc_words_per_decode = alloc_words () -. a0 in
  { encode_us;
    decode_us;
    decode_err_us;
    alloc_words_per_decode;
    decode_ok = Bytes.equal v value && !err_ok
  }

(* The codecs build multiply tables lazily, per coefficient, and keep
   them for the life of the process: a one-time cost that would
   otherwise land in the first round's allocation and live heap only.
   Decoding from every set of [decode_set] coded elements, clean and
   with element 0 corrupted (the error-prone coordinate of bulk-err),
   builds every table a round can use. *)
let warm_up ~seed (w : Workloads.t) =
  let code = w.Workloads.codec in
  let value =
    (Workloads.values ~seed ~salt:5 ~len:w.Workloads.value_len ~count:1).(0)
  in
  let frags = Array.to_list (Mds.encode code value) in
  let rec subsets size = function
    | _ when size = 0 -> [ [] ]
    | [] -> []
    | f :: rest -> List.map (fun s -> f :: s) (subsets (size - 1) rest) @ subsets size rest
  in
  List.iter
    (fun set ->
      ignore (Mds.decode code set : bytes);
      if List.exists (fun f -> Erasure.Fragment.index f = 0) set then
        let dirty =
          List.map
            (fun f ->
              if Erasure.Fragment.index f = 0 then Erasure.Fragment.corrupt f ~seed else f)
            set
        in
        try ignore (Mds.decode code dirty : bytes)
        with Mds.Decode_failure _ | Invalid_argument _ -> ())
    (subsets w.Workloads.decode_set frags)

(* Microseconds per [Disk.checksum] of one coded element. *)
let disk_checksum_us ~seed (w : Workloads.t) =
  let code = w.Workloads.codec in
  let value =
    (Workloads.values ~seed ~salt:4 ~len:w.Workloads.value_len ~count:1).(0)
  in
  let frag = (Mds.encode code value).(0) in
  let batch = max 1 (262_144 / Erasure.Fragment.size frag) in
  1e6
  *. median_time ~batch ~reps:21 (fun () ->
         ignore (Sys.opaque_identity (Soda.Disk.checksum frag)))
