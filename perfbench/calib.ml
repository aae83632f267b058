(* Host-speed calibration.

   The benchmark runs on shared hosts whose speed drifts by tens of
   percent over seconds to minutes, as neighbours contend for the
   memory system and for the cores. A raw wall-clock figure then
   measures the host as much as the program. So the benchmark
   interleaves short slices of two fixed reference loops with the timed
   work, and scales its wall-clock figures by how slowly the loops ran
   around them:

   - [memory] reads, then writes, a 64 MiB buffer: traffic through the
     shared last-level cache and memory, which the simulator's large
     heaps contend on;
   - [lookup] streams 64 KiB of 16-bit indices through eight 128 KiB
     tables (1 MiB, the size of the core's own cache level), the access
     pattern of the codecs' chunk-table multiplies, which a neighbour
     on the same core contends on.

   Each loop's factor is its mean time over its time on the reference
   host; the host factor is their geometric mean raised to the power
   [elasticity]. On a 2-vCPU x86-64 cloud VM (Intel Xeon, 2 MiB L2 per
   core, 105 MiB shared L3), over 18-35 rounds each of hot-register and
   bulk-err in a stretch where their raw per-round throughput spread by
   0.33 and 0.27 of the median, scaling by this factor left spreads of
   0.047 and 0.068. Either loop alone, or the two with an elasticity of
   1, did worse (0.07-0.14); the other candidates tried, dependent
   loads over 16 MiB, a 2 MiB write sweep and integer arithmetic, did
   worse still. The elasticity 1.3 is the slope of log throughput
   against log reference time, fitted per workload at 1.25-1.5: the
   workloads feel contention more than the loops do.

   The loops are the benchmark's own code and call nothing in the
   repository, so a change to the system under test cannot move them.
   Their memory is in Bigarrays, outside the OCaml heap, so they leave
   the GC counters and the live heap of the timed work alone. *)

open Bigarray

let memory_words = 1 lsl 23 (* 64 MiB of ints *)
let memory_buffer = lazy (Array1.init Int C_layout memory_words Fun.id)

let tables = 8
let table_len = 1 lsl 16
let stream_len = 1 lsl 15

let lookup_tables : (int, int16_unsigned_elt, c_layout) Array1.t Lazy.t =
  lazy (Array1.init Int16_unsigned C_layout (tables * table_len) (fun i -> (i * 40503) land 0xffff))

let lookup_stream : (int, int16_unsigned_elt, c_layout) Array1.t Lazy.t =
  lazy (Array1.init Int16_unsigned C_layout stream_len (fun i -> (i * 2654435761) land 0xffff))

let lookup_out : (int, int16_unsigned_elt, c_layout) Array1.t Lazy.t =
  lazy (Array1.create Int16_unsigned C_layout stream_len)

let sink = ref 0

let memory () =
  let a = Lazy.force memory_buffer in
  let sum = ref 0 in
  for i = 0 to memory_words - 1 do
    sum := !sum + Array1.unsafe_get a i
  done;
  for i = 0 to memory_words - 1 do
    Array1.unsafe_set a i (i + !sum)
  done;
  sink := !sum

let lookup () =
  let tab = Lazy.force lookup_tables
  and src = Lazy.force lookup_stream
  and out = Lazy.force lookup_out in
  for _ = 1 to 12 do
    for c = 0 to tables - 1 do
      let base = c * table_len in
      for i = 0 to stream_len - 1 do
        Array1.unsafe_set out i
          (Array1.unsafe_get out i lxor Array1.unsafe_get tab (base + Array1.unsafe_get src i))
      done
    done
  done;
  sink := !sink + Array1.unsafe_get out 0

(* Seconds each loop takes on the reference host, about its median on
   quiet stretches of the VM named above. They only fix the unit of the
   scaled figures. *)
let memory_reference_s = 0.025
let lookup_reference_s = 0.008
let elasticity = 1.3

type t = { mutable slices : int; mutable memory_s : float; mutable lookup_s : float }

let create () = { slices = 0; memory_s = 0.; lookup_s = 0. }

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Runs one slice of each loop and returns the wall seconds they took. *)
let slice t =
  let m = timed memory in
  let l = timed lookup in
  t.slices <- t.slices + 1;
  t.memory_s <- t.memory_s +. m;
  t.lookup_s <- t.lookup_s +. l;
  m +. l

let merge ts =
  List.fold_left
    (fun acc t ->
      { slices = acc.slices + t.slices;
        memory_s = acc.memory_s +. t.memory_s;
        lookup_s = acc.lookup_s +. t.lookup_s
      })
    (create ()) ts

(* The host factor: how much slower than the reference host the timed
   work ran, by the loops' account. A raw time is divided by it, a raw
   rate multiplied. *)
let factor t =
  if t.slices = 0 then nan
  else
    let n = float_of_int t.slices in
    let m = t.memory_s /. n /. memory_reference_s and l = t.lookup_s /. n /. lookup_reference_s in
    Float.pow (m *. l) (elasticity /. 2.)
