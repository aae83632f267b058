(* The repository's benchmark: one workload, one seed, one run.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   A run repeats rounds of the workload, each on the same seed-derived
   inputs, for about S wall seconds (at least one round). A round builds
   the system ("set-up"), runs the engine to quiescence, measures the
   retained heap while the system is still reachable, and checks the
   outcome. The first round is a warm-up; wall-clock figures come from
   the rounds after it, scaled by the host factor that [Calib] measures
   during each of them. The simulated figures must repeat exactly from
   round to round.

   With --trace 0 the last line of stdout is a JSON object holding the
   end-to-end metrics; with --trace 1 it holds the per-layer metrics,
   and the spans and the per-operation sim-time spans go to
   .bench_trace/<workload>-seed<N>.json. Any failed correctness check
   makes "correct" false and the exit code 1. *)

module Engine = Simnet.Engine
module History = Protocol.History
module W = Workloads

let now = Trace.now
let word_bytes = float_of_int (Sys.word_size / 8)

let live_bytes () =
  Gc.compact ();
  float_of_int (Gc.stat ()).Gc.live_words *. word_bytes

type gc_snap = { alloc : float; promoted : float; minor : int; major : int }

let gc_snap () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  { alloc = Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words;
    promoted = s.Gc.promoted_words;
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections
  }

(* The simulated outcome of a round: a pure function of the seed. *)
type sim = {
  events : int;
  msgs : int;
  msgs_data : int;
  msgs_meta : int;
  units : int;
  comm_units : float;
  storage_max : float;
  lat_w : float array;  (* ascending *)
  lat_r : float array;
  thm57_over : int;
  records : int;
  probe_events : int;
  lag_max : float  (* open loop: latest invocation past its due time *)
}

type round = {
  spans : Trace.t;
  setup_s : float;  (* raw wall seconds *)
  run_s : float;  (* raw wall seconds in [Engine.run], reference slices cut out *)
  ticks : float array;
      (* wall clock at the start and at the end of each of [blocks]
         blocks of completions, reference slices cut out *)
  qfactor : float array;  (* host factor in each quarter ([Calib.factor]) *)
  factor : float;  (* host factor over the run *)
  procs : int;  (* processes on the engine *)
  registers : int;
  scheduled : int;
  completed : int;
  failed : int;
  problems : string list;
  gc0 : gc_snap;
  gc1 : gc_snap;
  top_heap_bytes : float;
  live_bytes_per_key : float;
  sim : sim;
  op_spans : (int * int * History.kind * float * float option) list
}

let registers (p : W.prepared) = Array.length p.W.sys.W.keys

(* The run's completions fall into [blocks] blocks of equal size (up
   to rounding), 16 to a quarter; block [k] (1..blocks) ends at
   completion [block_end ~ops k]. *)
let blocks = 64
let block_end ~ops k = ((k * ops) + blocks - 1) / blocks

(* Fold over every history: latencies, Thm 5.7, read values, lanes. *)
let fold_histories (w : W.t) (p : W.prepared) ~bad ~problem =
  let sys = p.W.sys in
  let lat_w = ref [] and lat_r = ref [] and over = ref 0 in
  let records = ref 0 and probe_events = ref 0 in
  let comm = ref 0. and storage = ref 0. and lag = ref 0. in
  Array.iter
    (fun key ->
      let h = sys.W.history key in
      let recs = History.records h in
      records := !records + History.size h;
      probe_events := !probe_events + List.length (Protocol.Probe.events (sys.W.probe key));
      comm := !comm +. Protocol.Cost.total_comm (sys.W.cost key);
      storage := Float.max !storage (Protocol.Cost.max_total_storage (sys.W.cost key));
      let written = Hashtbl.create 16 in
      List.iter
        (fun (r : History.record) ->
          match (r.History.kind, r.History.value) with
          | History.Write, Some v -> Hashtbl.replace written v ()
          | _ -> ())
        recs;
      List.iter
        (fun (r : History.record) ->
          match r.History.responded_at with
          | None -> Hashtbl.replace bad (key, r.History.op) "incomplete"
          | Some t -> (
            let l = t -. r.History.invoked_at in
            let bound, lats =
              match r.History.kind with
              | History.Write -> (5. *. W.delta, lat_w)
              | History.Read -> (6. *. W.delta, lat_r)
            in
            lats := l :: !lats;
            if l > bound then begin
              incr over;
              if w.W.gate_thm57 then Hashtbl.replace bad (key, r.History.op) "Thm 5.7"
            end;
            match (r.History.kind, r.History.value) with
            | History.Read, Some v
              when Bytes.equal v sys.W.initial_value || Hashtbl.mem written v -> ()
            | History.Read, _ -> Hashtbl.replace bad (key, r.History.op) "read value"
            | History.Write, _ -> ()))
        recs;
      (* open loop: every operation invoked at its due time, and no lane
         ever held two operations at once *)
      (match p.W.dues with
       | None -> ()
       | Some dues ->
         let due = Stats.sorted (Option.value ~default:[] (Hashtbl.find_opt dues key)) in
         let inv = Stats.sorted (List.map (fun r -> r.History.invoked_at) recs) in
         if Array.length due <> Array.length inv then
           problem (Printf.sprintf "key %d: %d ops due, %d invoked" key (Array.length due)
                      (Array.length inv))
         else Array.iteri (fun i d -> lag := Float.max !lag (Float.abs (inv.(i) -. d))) due);
      let lanes = Hashtbl.create 8 in
      List.iter
        (fun (r : History.record) ->
          (match Hashtbl.find_opt lanes r.History.client with
           | Some (Some t) when t > r.History.invoked_at ->
             Hashtbl.replace bad (key, r.History.op) "lane overlap"
           | _ -> ());
          Hashtbl.replace lanes r.History.client r.History.responded_at)
        recs)
    sys.W.keys;
  if !lag > 0. then problem (Printf.sprintf "open-loop lag %g" !lag);
  let e = sys.W.engine in
  { events = Engine.events_executed e;
    msgs = Engine.messages_sent e;
    msgs_data = Engine.messages_data e;
    msgs_meta = Engine.messages_meta e;
    units = Engine.payload_units e;
    comm_units = !comm;
    storage_max = !storage;
    lat_w = Stats.sorted !lat_w;
    lat_r = Stats.sorted !lat_r;
    thm57_over = !over;
    records = !records;
    probe_events = !probe_events;
    lag_max = !lag
  }

let round (w : W.t) ~seed ~traced =
  let base = live_bytes () in
  let tr = Trace.create () in
  let completed = ref 0 and target = ref max_int in
  let ticks = Array.make (blocks + 1) nan and next = ref 1 in
  let engine = ref None in
  (* A reference slice runs from the completion callback in the middle
     of every four blocks, four to a quarter; the time it takes is cut
     out of the ticks and of [run_s]. *)
  let cal = Array.init 4 (fun _ -> Calib.create ()) in
  let ref_s = ref 0. in
  let complete () =
    incr completed;
    while !next <= blocks && block_end ~ops:!target !next = !completed do
      let k = !next in
      ticks.(k) <- now () -. !ref_s;
      incr next;
      if k mod 4 = 2 then ref_s := !ref_s +. Calib.slice cal.((k - 1) / (blocks / 4));
      if traced && k mod (blocks / 4) = 0 then begin
        let i = k / (blocks / 4) in
        let counts =
          match !engine with
          | None -> []
          | Some e ->
            [ ("events", float_of_int (Engine.events_executed e));
              ("msgs", float_of_int (Engine.messages_sent e));
              ("completed", float_of_int !completed);
              ("minor_words", Gc.minor_words ())
            ]
        in
        Trace.add tr ~layer:"simnet" ~name:(Printf.sprintf "engine.run.q%d" i)
          ~start:ticks.((i - 1) * blocks / 4) ~stop:ticks.(k) counts
      end
    done
  in
  let p = Trace.span tr ~layer:"bench" "setup" (fun () -> w.W.prepare ~seed tr ~complete) in
  let e = p.W.sys.W.engine in
  engine := Some e;
  target := p.W.scheduled;
  (* start the run on a finished major cycle, not wherever set-up left it *)
  Gc.full_major ();
  let gc0 = gc_snap () in
  Trace.span tr ~layer:"simnet" "engine.run"
    ~counts:(fun () -> [ ("events", float_of_int (Engine.events_executed e)) ])
    (fun () ->
      ticks.(0) <- now ();
      Engine.run ~max_events:max_int e;
      (* one span holds the reference slices, so they count as bench
         time and not as simnet time *)
      let t = now () in
      Trace.add tr ~layer:"bench" ~name:"calib" ~start:(t -. !ref_s) ~stop:t
        [ ("slices", float_of_int (Array.fold_left (fun n c -> n + c.Calib.slices) 0 cal)) ]);
  let gc1 = gc_snap () in
  let top_heap_bytes = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes in
  let live = Trace.span tr ~layer:"gc" "live_heap" live_bytes in
  p.W.sys.W.alive ();
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  let bad = Hashtbl.create 16 in
  let sim =
    Trace.span tr ~layer:"protocol" "history_fold" (fun () ->
        fold_histories w p ~bad ~problem)
  in
  Trace.span tr ~layer:"protocol" "check" (fun () ->
      Array.iter
        (fun key ->
          match
            Protocol.Atomicity.check_tagged ~initial_value:p.W.sys.W.initial_value
              (History.records (p.W.sys.W.history key))
          with
          | Ok () -> ()
          | Error v ->
            problem
              (Format.asprintf "key %d: %a" key Protocol.Atomicity.pp_violation v);
            List.iter (fun op -> Hashtbl.replace bad (key, op) "atomicity") v.Protocol.Atomicity.culprits)
        p.W.sys.W.keys);
  if !completed <> p.W.scheduled then
    problem (Printf.sprintf "%d of %d operations completed" !completed p.W.scheduled);
  Hashtbl.iter (fun (key, op) why -> problem (Printf.sprintf "key %d op %d: %s" key op why)) bad;
  let op_spans =
    if not traced then []
    else
      Array.fold_left
        (fun acc key ->
          List.fold_left
            (fun acc (r : History.record) ->
              (r.History.op, key, r.History.kind, r.History.invoked_at, r.History.responded_at)
              :: acc)
            acc (History.records (p.W.sys.W.history key)))
        [] p.W.sys.W.keys
  in
  { spans = tr;
    setup_s = Trace.total tr "setup";
    run_s = Trace.total tr "engine.run" -. !ref_s;
    ticks;
    qfactor = Array.map Calib.factor cal;
    factor = Calib.factor (Calib.merge (Array.to_list cal));
    procs = Engine.process_count e;
    registers = registers p;
    scheduled = p.W.scheduled;
    completed = !completed;
    failed = Hashtbl.length bad + max 0 (p.W.scheduled - sim.records);
    problems = List.rev !problems;
    gc0;
    gc1;
    top_heap_bytes;
    live_bytes_per_key = (live -. base) /. float_of_int (registers p);
    sim;
    op_spans
  }

(* Set-up alone, for the [setup_s] median. *)
let setup_only (w : W.t) ~seed =
  Gc.full_major ();
  let tr = Trace.create () in
  let p = Trace.span tr ~layer:"bench" "setup" (fun () -> w.W.prepare ~seed tr ~complete:ignore) in
  p.W.sys.W.alive ();
  Trace.total tr "setup"

(* ------------------------------------------------------------------ *)
(* Metrics *)

(* Wall-clock figures are scaled to the reference host: each quarter's
   raw seconds over the host factor measured within it (see [Calib]).
   What the run spends after its last completion counts with the last
   quarter. *)
let quarter_ticks i = (i * blocks / 4, (i + 1) * blocks / 4)

let scaled_run_s r =
  let tail = r.run_s -. (r.ticks.(blocks) -. r.ticks.(0)) in
  (tail /. r.qfactor.(3))
  +. List.fold_left
       (fun acc i ->
         let a, b = quarter_ticks i in
         acc +. ((r.ticks.(b) -. r.ticks.(a)) /. r.qfactor.(i)))
       0. [ 0; 1; 2; 3 ]

let ops_per_wall_s r = float_of_int r.completed /. scaled_run_s r
let raw_ops_per_wall_s r = float_of_int r.completed /. r.run_s

(* Wall time per op in the last quarter over that in the first. A
   quarter's time per op is the median over its blocks in every given
   round (the rounds run the same operations), each block scaled by its
   quarter's factor, so that a burst of contention that lasts a fraction
   of a quarter does not carry it. *)
let slowdown rounds =
  let quarter i =
    let a, b = quarter_ticks i in
    Stats.median
      (List.concat_map
         (fun r ->
           List.init (b - a) (fun j ->
               let k = a + j + 1 in
               (r.ticks.(k) -. r.ticks.(k - 1))
               /. float_of_int (block_end ~ops:r.scheduled k - block_end ~ops:r.scheduled (k - 1))
               /. r.qfactor.(i)))
         rounds)
  in
  quarter 3 /. quarter 0

let per_op r x = x /. float_of_int r.completed
let alloc_words_per_op r = per_op r (r.gc1.alloc -. r.gc0.alloc)
let med f rounds = Stats.median (List.map f rounds)

let tail_desc lats =
  let p, _, beyond = Stats.tail lats in
  Printf.sprintf "p%g of %d samples, %d beyond" p (Array.length lats) beyond

(* (name, value, unit, note) *)
let end_to_end rounds setups =
  let r = List.hd rounds in
  let s = r.sim in
  let tail a = let _, v, _ = Stats.tail a in v in
  [ ("ops_per_wall_s", med ops_per_wall_s rounds, "1/s", "");
    ("slowdown_late_vs_early", slowdown rounds, "ratio", "");
    ("alloc_words_per_op", med alloc_words_per_op rounds, "words", "");
    ("live_bytes_per_key", med (fun r -> r.live_bytes_per_key) rounds, "bytes", "");
    ("setup_s", Stats.median setups, "s", Printf.sprintf "median of %d set-ups" (List.length setups));
    ("msgs_per_op", per_op r (float_of_int s.msgs), "msgs", "");
    ("comm_units_per_op", per_op r s.comm_units, "values", "");
    ("storage_units_per_key", s.storage_max, "values", "");
    ("write_p50_sim", Stats.percentile s.lat_w 50., "simtime", "");
    ("write_tail_sim", tail s.lat_w, "simtime", tail_desc s.lat_w);
    ("read_p50_sim", Stats.percentile s.lat_r 50., "simtime", "");
    ("read_tail_sim", tail s.lat_r, "simtime", tail_desc s.lat_r)
  ]

let per_layer (w : W.t) ~seed ~untraced ~traced =
  let r = List.hd traced in
  let s = r.sim in
  let ops = float_of_int r.completed in
  let run_s = med (fun r -> r.run_s) traced in
  let ns_per_event = run_s *. 1e9 /. float_of_int s.events in
  let pt = Trace.create () in
  let mesh =
    Trace.span pt ~layer:"simnet" "probe.mesh" (fun () ->
        Probes.mesh_ns_per_event ~seed ~procs:r.procs)
  in
  let codec = Trace.span pt ~layer:"erasure" "probe.codec" (fun () -> Probes.codec ~seed w) in
  let checksum =
    Trace.span pt ~layer:"soda" "probe.checksum" (fun () -> Probes.disk_checksum_us ~seed w)
  in
  let span name = med (fun r -> Trace.total r.spans name) traced in
  let registers = float_of_int r.registers in
  let writes = float_of_int (Array.length s.lat_w) and reads = float_of_int (Array.length s.lat_r) in
  let materialize =
    if Trace.mem r.spans "materialize" then span "materialize" else span "create"
  in
  (* per layer: median self time over traced rounds, plus the probes *)
  let self_of layer t = Option.value ~default:0. (List.assoc_opt layer (Trace.self_times t)) in
  let self =
    List.map
      (fun layer ->
        ( "trace.self_s." ^ layer,
          med (fun r -> self_of layer r.spans) traced +. self_of layer pt,
          "s", "" ))
      [ "bench"; "erasure"; "gc"; "protocol"; "simnet"; "soda" ]
  in
  ( pt,
    codec.Probes.decode_ok,
    [ ("simnet.run_s", run_s, "s", "");
      ("simnet.events_per_op", float_of_int s.events /. ops, "events", "");
      ("simnet.ns_per_event", ns_per_event, "ns", "");
      ("simnet.mesh_ns_per_event", mesh, "ns", Printf.sprintf "raw engine, %d processes" r.procs);
      ("simnet.units_per_msg", float_of_int s.units /. float_of_int s.msgs, "units", "");
      ("simnet.msgs_data_per_op", float_of_int s.msgs_data /. ops, "msgs", "");
      ("simnet.msgs_meta_per_op", float_of_int s.msgs_meta /. ops, "msgs", "");
      ("soda.handler_ns_per_event", ns_per_event -. mesh, "ns", "");
      ("soda.create_s", span "create", "s", "");
      ("soda.materialize_us_per_key", materialize *. 1e6 /. registers, "us", "");
      ("soda.schedule_us_per_op", span "schedule" *. 1e6 /. float_of_int r.scheduled, "us", "");
      ("soda.thm57_over", float_of_int s.thm57_over, "count", "");
      ("soda.disk_checksum_us", checksum, "us", "");
      ("soda.open_loop_lag_sim", s.lag_max, "simtime", "");
      ("erasure.encode_us", codec.Probes.encode_us, "us", Erasure.Mds.name w.W.codec);
      ("erasure.decode_us", codec.Probes.decode_us, "us", "");
      ("erasure.decode_err_us", codec.Probes.decode_err_us, "us", "");
      ("erasure.alloc_words_per_decode", codec.Probes.alloc_words_per_decode, "words", "");
      ( "erasure.est_share",
        ((writes *. codec.Probes.encode_us) +. (reads *. codec.Probes.decode_us)) *. 1e-6 /. run_s,
        "ratio", "" );
      ("protocol.probe_events_per_op", float_of_int s.probe_events /. ops, "events", "");
      ("protocol.history_records", float_of_int s.records, "count", "");
      ("protocol.check_s", span "check", "s", "");
      ("protocol.check_ops_per_s", float_of_int s.records /. span "check", "1/s", "");
      ("gc.minor_collections", float_of_int (r.gc1.minor - r.gc0.minor), "count", "");
      ("gc.major_collections", float_of_int (r.gc1.major - r.gc0.major), "count", "");
      ("gc.promoted_words_per_op", (r.gc1.promoted -. r.gc0.promoted) /. ops, "words", "");
      ("gc.top_heap_bytes", r.top_heap_bytes, "bytes", "");
      ( "trace.overhead_ratio",
        med ops_per_wall_s untraced /. med ops_per_wall_s traced,
        "ratio", "untraced over traced ops_per_wall_s" )
    ]
    @ self )

(* ------------------------------------------------------------------ *)
(* Output *)

let json_string s = "\"" ^ String.escaped s ^ "\""

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit_, _) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_float v)
          (json_string unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let print_table metrics =
  List.iter
    (fun (name, v, unit_, note) ->
      Printf.printf "  %-34s %14.6g %-8s %s\n" name v unit_ note)
    metrics

let write_trace (w : W.t) ~seed ~probes rounds =
  let dir = ".bench_trace" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.json" w.W.name seed) in
  let oc = open_out path in
  Printf.fprintf oc "{\"workload\": %s, \"seed\": %d, \"spans\": [" (json_string w.W.name) seed;
  (* round -1 holds the probe spans *)
  List.iteri
    (fun i spans ->
      List.iteri
        (fun j (s : Trace.span) ->
          Printf.fprintf oc "%s\n{\"round\": %d, \"id\": %d, \"parent\": %d, \"layer\": %s, \"name\": %s, \"start\": %s, \"end\": %s, \"counts\": {%s}}"
            (if i = 0 && j = 0 then "" else ",")
            (i - 1) s.Trace.id s.Trace.parent (json_string s.Trace.layer) (json_string s.Trace.name)
            (json_float s.Trace.start) (json_float s.Trace.stop)
            (String.concat ", "
               (List.map (fun (k, v) -> json_string k ^ ": " ^ json_float v) s.Trace.counts)))
        (Trace.spans spans))
    (probes :: List.map (fun r -> r.spans) rounds);
  output_string oc "],\n\"ops\": [";
  let last = List.nth rounds (List.length rounds - 1) in
  List.iteri
    (fun i (op, key, kind, inv, resp) ->
      Printf.fprintf oc "%s\n{\"op\": %d, \"key\": %d, \"kind\": %s, \"invoked\": %s, \"responded\": %s}"
        (if i = 0 then "" else ",") op key
        (json_string (match kind with History.Write -> "write" | History.Read -> "read"))
        (json_float inv)
        (match resp with Some t -> json_float t | None -> "null"))
    (List.rev last.op_spans);
  output_string oc "]}\n";
  close_out oc;
  path

(* ------------------------------------------------------------------ *)
(* Main *)

let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S wall seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> String.equal w.W.name !workload) W.all with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload; one of: " ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
      exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = !seed and traced = !trace = 1 in
  Probes.warm_up ~seed w;
  ignore (Calib.slice (Calib.create ()) : float);
  let t_start = now () in
  let elapsed () = now () -. t_start in
  (* The first round warms the heap up: on a cold heap it runs about
     10% slower than the rounds after it. It is checked like every
     round, but its wall-clock figures do not count. Untraced: every
     later round counts. Traced: traced and untraced rounds alternate
     after it, at least one of each, so the tracing overhead compares
     rounds on an equally warm heap. Another round starts only if it
     should end within the budget. *)
  let kind i = if i = 0 then `Warm_up else if (not traced) || i mod 2 = 0 then `Untraced
    else `Traced in
  (* A batch of at least [count] set-ups adding up to at least [total]
     seconds, between two reference slices whose factor scales them. *)
  let setup_batch ~count ~total =
    let cal = Calib.create () in
    ignore (Calib.slice cal : float);
    let rec go acc n t =
      if (n >= count && t >= total) || n >= 50 then acc
      else
        let s = setup_only w ~seed in
        go (s :: acc) (n + 1) (t +. s)
    in
    let raw = go [] 0 0. in
    ignore (Calib.slice cal : float);
    List.map (fun s -> s /. Calib.factor cal) raw
  in
  (* A quick set-up is repeated in a batch of 0.15 s after each round,
     so the [setup_s] median draws on the whole run. A slow one counts
     once per round, scaled by the round's factor; the warm-up round's,
     the first on a cold heap, does not count. *)
  let rec loop i acc setups =
    let t0 = elapsed () in
    let r = round w ~seed ~traced:(kind i = `Traced) in
    let setups =
      (if r.setup_s < 0.05 then setup_batch ~count:1 ~total:0.15
       else if i = 0 then []
       else [ r.setup_s /. r.factor ])
      @ setups
    in
    let acc = (kind i, r) :: acc in
    if i < (if traced then 2 else 1) || (2. *. elapsed ()) -. t0 <= float_of_int !seconds then
      loop (i + 1) acc setups
    else (List.rev acc, setups)
  in
  let tagged, setups = loop 0 [] [] in
  let all = List.map snd tagged in
  let only k = List.filter_map (fun (k', r) -> if k' = k then Some r else None) tagged in
  let rounds = if traced then only `Traced else only `Untraced and untraced = only `Untraced in
  let setups =
    if List.length setups >= 5 then setups
    else setups @ setup_batch ~count:(5 - List.length setups) ~total:0.
  in
  let first = List.hd all in
  let problems = List.concat_map (fun r -> r.problems) all in
  let deterministic = List.for_all (fun r -> r.sim = first.sim) all in
  let problems = if deterministic then problems else "rounds disagree on the simulated outcome" :: problems in
  let metrics, probe_ok, probes =
    if traced then
      let pt, ok, m = per_layer w ~seed ~untraced ~traced:rounds in
      (m, ok, Some pt)
    else (end_to_end rounds setups, true, None)
  in
  let problems = if probe_ok then problems else "codec probe decoded a wrong value" :: problems in
  let problems =
    List.filter_map
      (fun (name, v, _, _) -> if Float.is_finite v then None else Some (name ^ " is not finite"))
      metrics
    @ problems
  in
  let failed = List.fold_left (fun acc r -> max acc r.failed) 0 all in
  let correct = problems = [] && failed = 0 in
  Printf.printf "perfbench %s seed %d: %d round(s) in %.1f s, %d ops per round (%s)\n  %s\n"
    w.W.name seed (List.length all) (elapsed ()) first.scheduled
    (if traced then "warm-up, then traced and untraced alternating" else "untraced")
    w.W.why;
  print_table metrics;
  Printf.printf "  per round: ops_per_wall_s %s; raw %s; host factor %s; slowdown %s; setup_s %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" (ops_per_wall_s r)) all))
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" (raw_ops_per_wall_s r)) all))
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.factor) all))
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" (slowdown [ r ])) all))
    (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
  if not traced then
    Printf.printf "  %-34s %14.6g %-8s %d of %d scheduled\n" "failed_op_frac"
      (float_of_int failed /. float_of_int first.scheduled) "ratio" failed first.scheduled;
  Option.iter
    (fun probes -> Printf.printf "  trace written to %s\n" (write_trace w ~seed ~probes rounds))
    probes;
  List.iteri (fun i p -> if i < 20 then Printf.printf "  FAILED: %s\n" p) problems;
  print_endline (result_line ~correct ~attempted:first.scheduled ~failed metrics);
  exit (if correct then 0 else 1)
