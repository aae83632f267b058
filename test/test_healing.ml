(* Tests for the self-healing plane: the checksummed fragment store
   (Soda.Disk), the heartbeat failure detector with autonomous
   crash-repair, the anti-entropy scrubber's targeted fragment repair,
   and the MTTD/MTTR episode extraction in Harness.Metrics. *)

module Engine = Simnet.Engine
module Delay = Simnet.Delay
module Params = Protocol.Params
module Probe = Protocol.Probe
module Tag = Protocol.Tag
module Fragment = Erasure.Fragment
module Disk = Soda.Disk
module Workload = Harness.Workload
module Metrics = Harness.Metrics

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Disk: checksummed store round-trips *)

let fragment_of ?(index = 2) s = Fragment.make ~index ~data:(Bytes.of_string s)

let disk_tests =
  [ Alcotest.test_case "store/read round-trips and verifies" `Quick (fun () ->
        let f = fragment_of "healthy payload" in
        let d = Disk.create ~tag:Tag.initial ~fragment:f in
        Alcotest.(check bool) "verify" true (Disk.verify d);
        Alcotest.(check bool) "not quarantined" false (Disk.quarantined d);
        match Disk.read d with
        | `Ok g -> Alcotest.(check bool) "same bytes" true (Fragment.equal f g)
        | `Corrupt -> Alcotest.fail "clean store read as corrupt");
    Alcotest.test_case "rot is detected and the quarantine is sticky" `Quick
      (fun () ->
        let d = Disk.create ~tag:Tag.initial ~fragment:(fragment_of "data") in
        Disk.rot d ~seed:7;
        Alcotest.(check bool) "verify fails" false (Disk.verify d);
        Alcotest.(check bool) "read corrupt" true (Disk.read d = `Corrupt);
        Alcotest.(check bool) "quarantined" true (Disk.quarantined d);
        (* sticky: a second read still refuses *)
        Alcotest.(check bool) "still corrupt" true (Disk.read d = `Corrupt));
    Alcotest.test_case "tags survive rot (metadata is not checksummed)"
      `Quick (fun () ->
        let tag = Tag.next Tag.initial ~w:3 in
        let d = Disk.create ~tag ~fragment:(fragment_of "data") in
        Disk.rot d ~seed:11;
        Alcotest.(check bool) "tag intact" true (Tag.equal tag (Disk.tag d)));
    qtest ~count:100 "corrupt -> detect -> quarantine -> store restores"
      QCheck2.Gen.(
        pair (string_size (int_range 1 200) >|= Bytes.of_string)
          (int_range 0 10_000))
      (fun (data, seed) ->
        let f = Fragment.make ~index:1 ~data in
        let d = Disk.create ~tag:Tag.initial ~fragment:f in
        Disk.rot d ~seed;
        let detected = Disk.read d = `Corrupt && Disk.quarantined d in
        (* the repair path: fresh bytes through store lift quarantine *)
        Disk.store d ~tag:(Tag.next Tag.initial ~w:0) ~fragment:f;
        detected
        && (not (Disk.quarantined d))
        && Disk.verify d
        &&
        match Disk.read d with
        | `Ok g -> Fragment.equal f g (* byte-identical restoration *)
        | `Corrupt -> false);
    qtest ~count:100 "checksum is a pure function of the payload + index"
      QCheck2.Gen.(
        pair (string_size (int_range 0 200) >|= Bytes.of_string)
          (int_range 0 100))
      (fun (data, index) ->
        let f = Fragment.make ~index ~data in
        Disk.checksum f = Disk.checksum f
        && (Bytes.length data = 0
           || Disk.checksum f <> Disk.checksum (Fragment.corrupt f ~seed:3)));
    (* Exhaustive over the bits of each generated payload: every word's
       top bit (bit 63, which an OCaml int cannot hold) and, for sizes
       that are not a multiple of 8, every tail bit. The payload is a
       view at an offset, as the codecs hand fragments out. *)
    qtest ~count:150 "checksum changes on every single-bit flip"
      QCheck2.Gen.(
        triple
          (oneof [ int_range 1 70; map (fun w -> 8 * w) (int_range 1 8) ]
          >>= fun len -> string_size (return len) >|= Bytes.of_string)
          (int_range 0 9) (int_range 0 20))
      (fun (data, pad, index) ->
        let len = Bytes.length data in
        let buf = Bytes.cat (Bytes.make pad '\xa5') data in
        let sum = Disk.checksum (Fragment.view ~index ~buf ~off:pad ~len) in
        List.for_all
          (fun bit ->
            let flipped = Bytes.copy buf in
            let i = pad + (bit / 8) in
            Bytes.set flipped i
              (Char.chr (Char.code (Bytes.get buf i) lxor (1 lsl (bit mod 8))));
            Disk.checksum (Fragment.view ~index ~buf:flipped ~off:pad ~len)
            <> sum)
          (List.init (8 * len) Fun.id))
  ]

(* ------------------------------------------------------------------ *)
(* End to end: the scrubber finds injected rot and restores the exact
   fragment from peers; the failure detector repairs an unannounced
   crash on its own. *)

let deploy_healed ~seed =
  let params = Params.make ~n:5 ~f:1 () in
  let engine = Engine.create ~seed ~delay:(Delay.constant 1.0) () in
  let d =
    Soda.Deployment.deploy ~engine ~params
      ~initial_value:(Bytes.make 64 'i')
      ~healing:Soda.Config.default_healing ~num_writers:1 ~num_readers:1 ()
  in
  (engine, d)

let heal_stats d =
  (Soda.Deployment.config d).Soda.Config.heal_stats

let plane_tests =
  [ Alcotest.test_case
      "scrub detects rot and restores the byte-identical fragment" `Quick
      (fun () ->
        let engine, d = deploy_healed ~seed:21 in
        Soda.Deployment.write d ~writer:0 ~at:5.0
          (Bytes.of_string "survives silent bit-rot");
        (* pause after the write has quiesced, snapshot the victim *)
        Engine.run engine ~until:90.0;
        let victim = Soda.Deployment.server d ~coordinate:2 in
        let before = Soda.Server.stored_fragment victim in
        let tag_before = Soda.Server.stored_tag victim in
        Soda.Deployment.corrupt_server d ~coordinate:2 ~at:100.0;
        Engine.run engine ~until:400.0;
        Alcotest.(check bool) "all disks clean" true
          (Soda.Deployment.scrub_clean d);
        Alcotest.(check bool) "byte-identical restoration" true
          (Fragment.equal before (Soda.Server.stored_fragment victim));
        Alcotest.(check bool) "tag not regressed" true
          (Tag.equal tag_before (Soda.Server.stored_tag victim));
        let hs = heal_stats d in
        Alcotest.(check bool) "scrub hit counted" true
          (hs.Soda.Config.scrub_hits >= 1);
        Alcotest.(check bool) "scrub repair counted" true
          (hs.Soda.Config.scrub_repairs >= 1);
        (* the probe stream tells the whole story *)
        let events = Probe.events (Soda.Deployment.probe d) in
        let has p = List.exists p events in
        Alcotest.(check bool) "rot injected" true
          (has (function Probe.Rot_injected { server = 2; _ } -> true | _ -> false));
        Alcotest.(check bool) "rot detected" true
          (has (function Probe.Rot_detected { server = 2; _ } -> true | _ -> false));
        Alcotest.(check bool) "scrub repaired" true
          (has (function Probe.Scrub_repaired { server = 2; _ } -> true | _ -> false)));
    Alcotest.test_case
      "failure detector repairs an unannounced crash autonomously" `Quick
      (fun () ->
        let engine, d = deploy_healed ~seed:22 in
        Soda.Deployment.write d ~writer:0 ~at:5.0
          (Bytes.of_string "outlives the crash");
        (* a Crash with no scheduled Repair anywhere *)
        Soda.Deployment.crash_server d ~coordinate:1 ~at:50.0;
        Engine.run engine ~until:600.0;
        Alcotest.(check bool) "all servers live again" true
          (Soda.Deployment.all_live d);
        let hs = heal_stats d in
        Alcotest.(check bool) "suspicion raised" true
          (hs.Soda.Config.suspicions >= 1);
        Alcotest.(check bool) "exactly one autonomous repair" true
          (hs.Soda.Config.auto_repairs = 1);
        (* the victim holds the written tag again after the repair *)
        let healthy = Soda.Deployment.server d ~coordinate:0 in
        let victim = Soda.Deployment.server d ~coordinate:1 in
        Alcotest.(check bool) "element recovered" true
          (Tag.equal
             (Soda.Server.stored_tag healthy)
             (Soda.Server.stored_tag victim));
        (* MTTD/MTTR: detection needs at most suspicion_timeout + one
           heartbeat period; the repair itself is fast on a quiet net *)
        let eps = Metrics.heal_episodes (Soda.Deployment.probe d) in
        (match Metrics.heal_mttd eps with
        | [ mttd ] ->
          Alcotest.(check bool)
            (Printf.sprintf "mttd %.1f bounded" mttd)
            true (mttd <= 50.0)
        | _ -> Alcotest.fail "expected exactly one detected episode");
        match Metrics.heal_mttr eps with
        | [ mttr ] ->
          Alcotest.(check bool)
            (Printf.sprintf "mttr %.1f bounded" mttr)
            true (mttr <= 100.0)
        | _ -> Alcotest.fail "expected exactly one healed episode");
    Alcotest.test_case "a merely partitioned server is never wiped" `Quick
      (fun () ->
        let engine, d = deploy_healed ~seed:23 in
        Soda.Deployment.write d ~writer:0 ~at:5.0 (Bytes.of_string "keep me");
        Soda.Deployment.partition_servers d ~coordinates:[ 3 ] ~at:50.0;
        Soda.Deployment.heal_servers d ~coordinates:[ 3 ] ~at:200.0;
        Engine.run engine ~until:500.0;
        let hs = heal_stats d in
        (* the survivors do suspect the silent server... *)
        Alcotest.(check bool) "suspicion raised" true
          (hs.Soda.Config.suspicions >= 1);
        (* ...but the auto-repair hook sees it is not crashed and holds
           fire: no wipe, no repair round *)
        Alcotest.(check int) "no autonomous repair" 0
          hs.Soda.Config.auto_repairs;
        Alcotest.(check bool) "all live" true (Soda.Deployment.all_live d))
  ]

(* ------------------------------------------------------------------ *)
(* Overhead posture: healing traffic is metadata only, and with healing
   off the plane leaves no trace at all. *)

let overhead_tests =
  [ Alcotest.test_case "heartbeat/scrub traffic is meta, never data" `Quick
      (fun () ->
        let run ~healing =
          let params = Params.make ~n:5 ~f:1 () in
          let engine =
            Engine.create ~seed:31
              ~classify:(fun m -> Soda.Messages.data_bytes m > 0)
              ~delay:(Delay.constant 1.0) ()
          in
          let d =
            Soda.Deployment.deploy ~engine ~params ?healing ~num_writers:1
              ~num_readers:1 ()
          in
          Soda.Deployment.write d ~writer:0 ~at:5.0 (Bytes.make 64 'x');
          Soda.Deployment.read d ~reader:0 ~at:40.0 ();
          Engine.run engine ~until:200.0;
          (Engine.messages_data engine, Engine.messages_meta engine, d)
        in
        let data_off, meta_off, d_off = run ~healing:None in
        let data_on, meta_on, d_on =
          run ~healing:(Some Soda.Config.default_healing)
        in
        (* the plane adds meta traffic but not one data message *)
        Alcotest.(check int) "messages_data unchanged" data_off data_on;
        Alcotest.(check bool) "meta strictly grows" true (meta_on > meta_off);
        let hs_on = heal_stats d_on in
        Alcotest.(check bool) "heartbeats flowed" true
          (hs_on.Soda.Config.heartbeats_sent > 0);
        Alcotest.(check bool) "sweeps ran" true
          (hs_on.Soda.Config.scrub_sweeps > 0);
        (* healing=None: all plane counters stay zero *)
        let hs_off = heal_stats d_off in
        Alcotest.(check int) "no heartbeats" 0 hs_off.Soda.Config.heartbeats_sent;
        Alcotest.(check int) "no sweeps" 0 hs_off.Soda.Config.scrub_sweeps;
        Alcotest.(check int) "no suspicions" 0 hs_off.Soda.Config.suspicions)
  ]

(* ------------------------------------------------------------------ *)
(* Metrics.heal_episodes on a hand-built probe stream *)

let episode_tests =
  [ Alcotest.test_case "episodes reconstruct MTTD and MTTR" `Quick (fun () ->
        let probe = Probe.create () in
        List.iter (Probe.emit probe)
          [ Probe.Crash_injected { server = 1; time = 10.0 };
            Probe.Suspected { target = 1; by = 0; time = 45.0 };
            Probe.Suspected { target = 1; by = 3; time = 46.0 };
            Probe.Repaired { server = 1; tag = Tag.initial; time = 80.0 };
            Probe.Rot_injected { server = 3; time = 100.0 };
            Probe.Rot_detected { server = 3; time = 150.0 };
            Probe.Scrub_repaired { server = 3; tag = Tag.initial; time = 170.0 }
          ];
        let eps = Metrics.heal_episodes probe in
        Alcotest.(check int) "two episodes" 2 (List.length eps);
        Alcotest.(check (list (float 1e-9))) "mttd" [ 35.0; 50.0 ]
          (Metrics.heal_mttd eps);
        Alcotest.(check (list (float 1e-9))) "mttr" [ 70.0; 70.0 ]
          (Metrics.heal_mttr eps));
    Alcotest.test_case "rot healed by an overwriting write" `Quick (fun () ->
        let probe = Probe.create () in
        List.iter (Probe.emit probe)
          [ Probe.Rot_injected { server = 2; time = 20.0 };
            (* no scrub ever saw it: a newer write landed first *)
            Probe.Stored { server = 2; tag = Tag.initial; time = 32.0 }
          ];
        let eps = Metrics.heal_episodes probe in
        Alcotest.(check int) "one episode" 1 (List.length eps);
        Alcotest.(check (list (float 1e-9))) "no detection" []
          (Metrics.heal_mttd eps);
        Alcotest.(check (list (float 1e-9))) "healed in 12" [ 12.0 ]
          (Metrics.heal_mttr eps));
    Alcotest.test_case "an unhealed fault stays an open episode" `Quick
      (fun () ->
        let probe = Probe.create () in
        List.iter (Probe.emit probe)
          [ Probe.Crash_injected { server = 0; time = 5.0 };
            Probe.Suspected { target = 0; by = 4; time = 44.0 }
          ];
        let eps = Metrics.heal_episodes probe in
        Alcotest.(check int) "one episode" 1 (List.length eps);
        Alcotest.(check (list (float 1e-9))) "detected" [ 39.0 ]
          (Metrics.heal_mttd eps);
        Alcotest.(check (list (float 1e-9))) "never healed" []
          (Metrics.heal_mttr eps))
  ]

let () =
  Alcotest.run "healing"
    [ ("disk", disk_tests);
      ("plane", plane_tests);
      ("overhead", overhead_tests);
      ("episodes", episode_tests)
    ]
