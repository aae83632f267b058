(* The three workloads. Each one builds its system from the seed and
   schedules its operations; [Perfbench] then runs the engine, times it
   and checks the outcome through the same observation functions.

   All of them run on the raw transport with transit delays uniform in
   [0.2, 2.0], so the paper's Delta is 2.0. *)

module Engine = Simnet.Engine
module History = Protocol.History
module Deployment = Soda.Deployment
module Keyspace = Soda.Keyspace

let delta = 2.0
let delay = Simnet.Delay.uniform ~lo:0.2 ~hi:delta

type system = {
  engine : Soda.Messages.t Engine.t;
  keys : int array;  (* the registers *)
  history : int -> History.t;
  cost : int -> Protocol.Cost.t;
  probe : int -> Protocol.Probe.t;
  initial_value : bytes;
  alive : unit -> unit  (* touches the deployment, keeping it reachable *)
}

type prepared = {
  sys : system;
  scheduled : int;
  dues : (int, float list) Hashtbl.t option  (* open loop: due times per key *)
}

type t = {
  name : string;
  why : string;
  value_len : int;
  codec : Erasure.Mds.t;  (* the codec the deployment picks, for probes *)
  decode_set : int;  (* coded elements a reader decodes from *)
  gate_thm57 : bool;  (* Thm 5.7 latency bounds apply *)
  prepare : seed:int -> Trace.t -> complete:(unit -> unit) -> prepared
}

(* Distinct pseudo-random values. Value [i] is the window of one seeded
   random pool that starts at byte [8 * i], with [i] written over its
   first 8 bytes so no two are equal. Drawing the pool once, rather
   than every value, keeps input generation small next to the system's
   own set-up work. *)
let values ~seed ~salt ~len ~count =
  let st = Random.State.make [| seed; salt |] in
  let pool = Bytes.make (len + (8 * count)) '\000' in
  for w = 0 to (Bytes.length pool / 8) - 1 do
    Bytes.set_int64_le pool (8 * w) (Random.State.bits64 st)
  done;
  Array.init count (fun i ->
      let b = Bytes.sub pool (8 * i) len in
      if len >= 8 then Bytes.set_int64_le b 0 (Int64.of_int i);
      b)

let engine ~seed =
  Engine.create ~seed ~delay
    ~classify:(fun m -> Soda.Messages.data_bytes m > 0)
    ~weigh:Soda.Messages.logical_units ()

let deployed d alive =
  { engine = Deployment.engine d;
    keys = [| 0 |];
    history = (fun _ -> Deployment.history d);
    cost = (fun _ -> Deployment.cost d);
    probe = (fun _ -> Deployment.probe d);
    initial_value = Deployment.initial_value d;
    alive
  }

(* A closed loop on one register: each client issues its next operation
   [think] after the previous one completes. *)
let closed_loop ~name ~why ~params ~value_len ~error_prone ~writers ~readers
    ~per_client =
  let think = 1.0 in
  let prepare ~seed tr ~complete =
    let values, initial_value =
      Trace.span tr ~layer:"bench" "gen_inputs" (fun () ->
          let v = values ~seed ~salt:1 ~len:value_len ~count:((writers * per_client) + 1) in
          (Array.sub v 1 (writers * per_client), v.(0)))
    in
    let engine = engine ~seed in
    let d =
      Trace.span tr ~layer:"soda" "create" (fun () ->
          Deployment.deploy ~engine ~params ~initial_value ~value_len
            ~error_prone ~num_writers:writers ~num_readers:readers ())
    in
    Trace.span tr ~layer:"soda" "schedule" (fun () ->
        let rec writer w j () =
          if j < per_client then
            Deployment.write d ~writer:w
              ~at:(Engine.now engine +. think)
              ~on_done:(fun () ->
                complete ();
                writer w (j + 1) ())
              values.((w * per_client) + j)
        in
        let rec reader r j () =
          if j < per_client then
            Deployment.read d ~reader:r
              ~at:(Engine.now engine +. think)
              ~on_done:(fun _ ->
                complete ();
                reader r (j + 1) ())
              ()
        in
        for w = 0 to writers - 1 do
          writer w 0 ()
        done;
        for r = 0 to readers - 1 do
          reader r 0 ()
        done);
    { sys = deployed d (fun () -> ignore (Sys.opaque_identity d));
      scheduled = (writers + readers) * per_client;
      dues = None
    }
  in
  let k = Protocol.Params.k_soda params in
  let e = Protocol.Params.e params in
  let n = Protocol.Params.n params in
  { name;
    why;
    value_len;
    codec =
      (if e > 0 then Erasure.Mds.rs_bch ~n ~k else Erasure.Mds.rs_vandermonde ~n ~k);
    decode_set = k + (2 * e);
    gate_thm57 = true;
    prepare
  }

let hot_register =
  closed_loop ~name:"hot-register"
    ~why:
      "one long-history 4+2 register: per-op work that grows with history \
       dominates"
    ~params:(Protocol.Params.make ~n:6 ~f:2 ())
    ~value_len:1024 ~error_prone:[] ~writers:4 ~readers:4 ~per_client:1000

let bulk_err =
  closed_loop ~name:"bulk-err"
    ~why:"SODAerr rs-bch[12,8] with 64 KiB values and one error-prone disk: \
          byte work dominates"
    ~params:(Protocol.Params.make ~n:12 ~f:2 ~e:1 ())
    ~value_len:65536 ~error_prone:[ 0 ] ~writers:2 ~readers:2 ~per_client:100

(* keyspace-zipf: an open loop over 10,000 materialized keys. *)
let zipf_keys = 10_000
let zipf_ops = 40_000
let zipf_rate = 0.8
let zipf_lane_gap = 50.0

let keyspace_zipf =
  let value_len = 64 and writers = 4 and readers = 4 in
  let params = Soda.Placement.preset_params `P4_2 in
  let prepare ~seed tr ~complete =
    let sched, values, initial_value =
      Trace.span tr ~layer:"bench" "gen_inputs" (fun () ->
          let sched =
            Zipf.schedule ~seed ~keys:zipf_keys ~s:0.99 ~ops:zipf_ops
              ~rate:zipf_rate ~writers ~readers ~lane_gap:zipf_lane_gap
          in
          let v = values ~seed ~salt:2 ~len:value_len ~count:(sched.Zipf.writes + 1) in
          (sched, Array.sub v 1 sched.Zipf.writes, v.(0)))
    in
    let engine = engine ~seed in
    let ks =
      Trace.span tr ~layer:"soda" "create" (fun () ->
          let topology = Soda.Topology.make ~servers:12 ~domains:3 () in
          let placement =
            Soda.Placement.create ~topology ~params
              ~policy:Soda.Placement.Consistent_hash ()
          in
          Deployment.create ~engine ~topology ~placement ~initial_value
            ~value_len ~plane:Soda.Config.batched_plane ~num_writers:writers
            ~num_readers:readers ())
    in
    Trace.span tr ~layer:"soda" "materialize" (fun () ->
        for key = 0 to zipf_keys - 1 do
          Keyspace.materialize ks ~key
        done);
    let dues = Hashtbl.create zipf_keys in
    Trace.span tr ~layer:"soda" "schedule" (fun () ->
        Array.iter
          (fun (op : Zipf.op) ->
            let key = op.Zipf.key and at = op.Zipf.due in
            Hashtbl.replace dues key
              (at :: Option.value ~default:[] (Hashtbl.find_opt dues key));
            match op.Zipf.kind with
            | Zipf.Write ->
              Keyspace.write ks ~key ~writer:op.Zipf.client ~at ~on_done:complete
                values.(op.Zipf.index)
            | Zipf.Read ->
              Keyspace.read ks ~key ~reader:op.Zipf.client ~at
                ~on_done:(fun _ -> complete ())
                ())
          sched.Zipf.ops);
    { sys =
        { engine;
          keys = Array.init zipf_keys Fun.id;
          history = (fun key -> Keyspace.history ks ~key);
          cost = (fun key -> Keyspace.cost ks ~key);
          probe = (fun key -> Keyspace.probe ks ~key);
          initial_value;
          alive = (fun () -> ignore (Sys.opaque_identity ks))
        };
      scheduled = Array.length sched.Zipf.ops;
      dues = Some dues
    }
  in
  { name = "keyspace-zipf";
    why =
      "10k keys over 12 servers on the batched plane, zipf(0.99) open loop: \
       shared plane and per-key memory dominate";
    value_len;
    codec = Erasure.Mds.rs_vandermonde ~n:6 ~k:4;
    decode_set = 4;
    gate_thm57 = false;
    prepare
  }

let all = [ hot_register; keyspace_zipf; bulk_err ]
