(* End-to-end simulator & checker throughput, reported as JSON (one
   object on stdout) so successive runs can be archived as a
   trajectory. Invoked as

     dune exec bench/main.exe -- sim            # full
     dune exec bench/main.exe -- sim --smoke    # tiny CI quota

   Three probes:

   - "mesh": a raw engine workload (no protocol) — P processes bounce
     messages across random links until a hop budget is exhausted.
     Every delivery is one heap push + pop + dispatch, so events/sec
     here is the ceiling any protocol simulation can reach.
   - "mesh-reliable": the same workload over the ack/retransmit channel
     substrate at loss p = 0 — the retransmit layer's pure overhead.
     Compare events_per_s and the sent/delivered inflation against
     "mesh" to price `Reliable transport on a loss-free network.
   - "soda-soak": the default soak workload (SODA at n=25, f=12 with
     concurrent clients and staggered crashes) — events/sec and ops/sec
     as an experiment actually sees them.
   - "soda-closed-loop-8k" / "-32k": one register (n=6, f=2) under a
     closed loop of 4 writers and 4 readers, run to 8k and to 32k ops.
     Per-op work must not grow with the register's history, so the two
     rows must report the same ops/sec; bench_diff flags the long one
     if it falls behind the suite.
   - "checker": Atomicity.check_tagged on a synthetic m-operation
     history — wall milliseconds for the full Lemma 2.1 check.

   Every point also reports the engine's message accounting (sent /
   dropped / lost / retransmissions) so lossy runs can be told apart
   from crash-lossy ones at a glance. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay

let smoke = ref false

(* [--out FILE]: also write the JSON object to FILE (stable schema, see
   BENCH_sim.json at the repo root for the committed baseline). *)
let out : string option ref = ref None

type point = {
  probe : string;
  size : int;  (* events for sims, ops for the checker *)
  seconds : float;
  events_per_s : float;
  ops_per_s : float;
  sent : int;
  dropped : int;  (* messages to crashed processes *)
  lost : int;  (* messages eaten by the link fault plane *)
  retransmissions : int;
}

let no_traffic = (0, 0, 0, 0)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* Repeat [f] (fresh state each call) until [min_elapsed] seconds have
   been measured and return the per-call average of (seconds, count). *)
let measure ~min_elapsed f =
  ignore (f ());
  (* warm-up *)
  let iters = ref 0 and elapsed = ref 0.0 and count = ref 0 in
  while !iters < 2 || !elapsed < min_elapsed do
    let s, c = time f in
    elapsed := !elapsed +. s;
    count := !count + c;
    incr iters
  done;
  (!elapsed /. float_of_int !iters, !count / !iters)

(* ------------------------------------------------------------------ *)
(* mesh: raw engine throughput *)

type mesh_msg = Hop of int

let mesh_events ?(transport = `Raw) ~procs ~messages ~hops () =
  let engine =
    Engine.create ~seed:42 ~transport ~delay:(Delay.uniform ~lo:0.1 ~hi:2.0) ()
  in
  let pids =
    Array.init procs (fun i -> Engine.reserve engine ~name:(string_of_int i))
  in
  Array.iter
    (fun pid ->
      Engine.set_handler engine pid (fun ctx ~src:_ (Hop i) ->
          if i > 0 then begin
            let dst = pids.(Simnet.Rng.int (Engine.rng_ctx ctx) procs) in
            Engine.send ctx ~dst (Hop (i - 1))
          end))
    pids;
  for m = 0 to messages - 1 do
    Engine.inject engine ~at:0.0 pids.(m mod procs) (fun ctx ->
        Engine.send ctx ~dst:pids.((m + 1) mod procs) (Hop hops))
  done;
  Engine.run engine;
  ( Engine.messages_delivered engine,
    ( Engine.messages_sent engine,
      Engine.messages_dropped engine,
      Engine.messages_lost engine,
      Engine.retransmissions engine ) )

let mesh_point ?(transport = `Raw) ~probe () =
  let procs = 64 in
  let messages, hops = if !smoke then (100, 50) else (1_000, 500) in
  let min_elapsed = if !smoke then 0.05 else 1.0 in
  let traffic = ref no_traffic in
  let seconds, delivered =
    measure ~min_elapsed (fun () ->
        let d, t = mesh_events ~transport ~procs ~messages ~hops () in
        traffic := t;
        d)
  in
  let sent, dropped, lost, retransmissions = !traffic in
  { probe;
    size = delivered;
    seconds;
    events_per_s = float_of_int delivered /. seconds;
    ops_per_s = 0.0;
    sent;
    dropped;
    lost;
    retransmissions
  }

(* ------------------------------------------------------------------ *)
(* soda-soak: the default soak workload end to end *)

let soak_run ~ops_per_client () =
  let params = Protocol.Params.make ~n:25 ~f:12 () in
  let w =
    Harness.Workload.concurrent ~params ~value_len:256 ~seed:1 ~num_writers:4
      ~num_readers:4 ~ops_per_client
      ~delay:(Delay.exponential ~mean:1.0 ~cap:10.0) ()
  in
  let crashes = List.init 12 (fun i -> (2 * i, float_of_int (i * 80))) in
  let r =
    Harness.Runner.run Harness.Runner.Soda
      (Harness.Workload.with_crashes w crashes)
  in
  ( r.Harness.Runner.messages_delivered,
    Harness.Workload.total_ops w,
    ( r.Harness.Runner.messages_sent,
      r.Harness.Runner.messages_dropped,
      r.Harness.Runner.messages_lost,
      0 ) )

let soak_point () =
  let ops_per_client = if !smoke then 2 else 8 in
  let min_elapsed = if !smoke then 0.05 else 1.0 in
  let ops = ref 0 in
  let traffic = ref no_traffic in
  let seconds, delivered =
    measure ~min_elapsed (fun () ->
        let d, o, t = soak_run ~ops_per_client () in
        ops := o;
        traffic := t;
        d)
  in
  let sent, dropped, lost, retransmissions = !traffic in
  { probe = "soda-soak";
    size = delivered;
    seconds;
    events_per_s = float_of_int delivered /. seconds;
    ops_per_s = float_of_int !ops /. seconds;
    sent;
    dropped;
    lost;
    retransmissions
  }

(* ------------------------------------------------------------------ *)
(* soda-closed-loop: one long-history register *)

let closed_loop_point ~ops =
  let params = Protocol.Params.make ~n:6 ~f:2 () in
  let messages = ref 0 in
  let seconds, ops_done =
    measure ~min_elapsed:0.0 (fun () ->
        let r =
          Harness.Closed_loop.run_soda ~params ~num_writers:4 ~num_readers:4
            ~ops_per_client:(ops / 8) ()
        in
        messages := r.Harness.Closed_loop.messages;
        Protocol.History.size r.Harness.Closed_loop.history)
  in
  { probe = Printf.sprintf "soda-closed-loop-%dk" (ops / 1000);
    size = !messages;
    seconds;
    events_per_s = float_of_int !messages /. seconds;
    ops_per_s = float_of_int ops_done /. seconds;
    sent = !messages;
    dropped = 0;
    lost = 0;
    retransmissions = 0
  }

(* ------------------------------------------------------------------ *)
(* checker: Atomicity.check_tagged on a large synthetic history *)

let synthetic_history m =
  (* a sequentially consistent interleaving with random overlap — the
     same construction as the checker cross-validation tests *)
  let rng = Simnet.Rng.create 7 in
  let time = ref 0.0 in
  let last_write = ref None in
  let zc = ref 0 in
  List.init m (fun op ->
      let start = !time +. Simnet.Rng.float rng 1.0 in
      let finish = start +. Simnet.Rng.float rng 1.0 in
      time := finish;
      let mk kind tag value : Protocol.History.record =
        { Protocol.History.op;
          client = op mod 8;
          kind;
          invoked_at = start;
          responded_at = Some finish;
          tag = Some tag;
          value = Some (Bytes.of_string value)
        }
      in
      if Simnet.Rng.bool rng then begin
        incr zc;
        let tag = Protocol.Tag.make ~z:!zc ~w:(100 + op) in
        let value = Printf.sprintf "v%d" op in
        last_write := Some (tag, value);
        mk Protocol.History.Write tag value
      end
      else
        match !last_write with
        | None -> mk Protocol.History.Read Protocol.Tag.initial ""
        | Some (tag, value) -> mk Protocol.History.Read tag value)

let checker_point () =
  let m = if !smoke then 2_000 else 10_000 in
  let records = synthetic_history m in
  let min_elapsed = if !smoke then 0.05 else 0.5 in
  let seconds, _ =
    measure ~min_elapsed (fun () ->
        match Protocol.Atomicity.check_tagged records with
        | Ok () -> m
        | Error _ -> failwith "sim bench: synthetic history rejected")
  in
  let sent, dropped, lost, retransmissions = no_traffic in
  { probe = "checker";
    size = m;
    seconds;
    events_per_s = float_of_int m /. seconds;
    ops_per_s = 0.0;
    sent;
    dropped;
    lost;
    retransmissions
  }

(* ------------------------------------------------------------------ *)

let emit points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"bench\":\"sim\",";
  Buffer.add_string buf (Printf.sprintf "\"smoke\":%b,\"results\":[" !smoke);
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"probe\":%S,\"size\":%d,\"seconds\":%.4f,\"events_per_s\":%.0f,\"ops_per_s\":%.1f,\"sent\":%d,\"dropped\":%d,\"lost\":%d,\"retransmissions\":%d}"
           p.probe p.size p.seconds p.events_per_s p.ops_per_s p.sent p.dropped
           p.lost p.retransmissions))
    points;
  Buffer.add_string buf "]}";
  let json = Buffer.contents buf in
  print_endline json;
  match !out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc json;
    output_char oc '\n';
    close_out oc

let run () =
  emit
    [ mesh_point ~probe:"mesh" ();
      mesh_point ~transport:(`Reliable Simnet.Channel.default)
        ~probe:"mesh-reliable" ();
      soak_point ();
      closed_loop_point ~ops:(if !smoke then 1_000 else 8_000);
      closed_loop_point ~ops:(if !smoke then 4_000 else 32_000);
      checker_point ()
    ]
