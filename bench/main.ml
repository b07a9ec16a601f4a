(* The benchmark harness.

   Two halves:

   1. The PAPER REPRODUCTION: one harness per table/figure of the
      evaluation (Figs. 3, 4, 9, 10 and the reconstructed 11-15, plus
      the design ablations), each printing the same rows/series the
      paper reports.  `dune exec bench/main.exe` runs everything;
      `dune exec bench/main.exe -- fig3 fig9` runs a subset;
      `--scale 0.5` shrinks simulated durations.

   2. MICRO-BENCHMARKS (Bechamel): throughput of the hot data
      structures the simulator's credibility rests on — flow-table
      lookup/insert, select-group hashing, event-heap churn, the packet
      and OpenFlow wire codecs.  Run with `-- micro`. *)

open Scotch_experiments

(* ------------------------------------------------------------------ *)
(* Paper figures *)

let figures :
    (string * (seed:int -> scale:float -> Report.figure)) list =
  [ ("fig3", fun ~seed ~scale -> Fig3.run ~seed ~scale ());
    ("fig4", fun ~seed ~scale -> Fig4.run ~seed ~scale ());
    ("fig9", fun ~seed ~scale -> Fig9.run ~seed ~scale ());
    ("fig10", fun ~seed ~scale -> Fig10.run ~seed ~scale ());
    ("fig11", fun ~seed ~scale -> Fig11.run ~seed ~scale ());
    ("fig12", fun ~seed ~scale -> Fig12.run ~seed ~scale ());
    ("fig13", fun ~seed ~scale -> Fig13.run ~seed ~scale ());
    ("fig14", fun ~seed ~scale -> Fig14.run ~seed ~scale ());
    ("fig15", fun ~seed ~scale -> Fig15.run ~seed ~scale ());
    ("resilience", fun ~seed ~scale -> Resilience.run ~seed ~scale ());
    ("telemetry", fun ~seed ~scale -> Telemetry.run ~seed ~scale ());
    ("isolation", fun ~seed ~scale -> Isolation.run ~seed ~scale ());
    ("exp-fabric", fun ~seed ~scale -> Exp_fabric.run ~seed ~scale ());
    ("ablation-lb", fun ~seed ~scale -> Ablation.run_lb ~seed ~scale ());
    ("ablation-dedicated-port", fun ~seed ~scale -> Ablation.run_dedicated_port ~seed ~scale ());
    ("ablation-withdrawal", fun ~seed ~scale -> Ablation.run_withdrawal ~seed ~scale ()) ]

let run_figures names ~seed ~scale =
  let todo =
    if names = [] then figures
    else
      List.filter_map
        (fun n ->
          match List.assoc_opt n figures with
          | Some f -> Some (n, f)
          | None ->
            Printf.eprintf "unknown figure %s (try: %s)\n" n
              (String.concat " " (List.map fst figures));
            None)
        names
  in
  List.map
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      let fig = f ~seed ~scale in
      let dt = Unix.gettimeofday () -. t0 in
      Report.print fig;
      Printf.printf "   [%s regenerated in %.1f s wall clock]\n\n%!" name dt;
      (name, dt))
    todo

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks *)

open Scotch_packet
open Scotch_openflow
open Scotch_switch
open Scotch_util

let mk_packet i =
  Packet.tcp_syn ~flow_id:i ~created:0.0 ~src_mac:(Mac.of_host_id 1)
    ~dst_mac:(Mac.of_host_id 2)
    ~ip_src:(Ipv4_addr.of_int (0x0A000000 + i))
    ~ip_dst:(Ipv4_addr.make 10 0 0 200) ~src_port:(1024 + (i land 0xFFF)) ~dst_port:80 ()

let bench_flow_table_lookup () =
  (* 1000 exact rules + miss rule; lookup hits the exact probe *)
  let table = Flow_table.create ~table_id:0 () in
  for i = 0 to 999 do
    ignore
      (Flow_table.insert table ~now:0.0 ~priority:10
         ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet i)))
         ~instructions:(Of_action.output (Of_types.Port_no.Physical 1))
         ~idle_timeout:0.0 ~hard_timeout:0.0 ~cookie:0L)
  done;
  let probe = mk_packet 500 in
  let ctx = Of_match.context ~in_port:1 probe in
  Bechamel.Test.make ~name:"flow_table lookup (1k exact rules)"
    (Bechamel.Staged.stage (fun () -> ignore (Flow_table.peek table ~now:0.0 ctx)))

let bench_flow_table_insert () =
  let table = Flow_table.create ~table_id:0 () in
  let i = ref 0 in
  Bechamel.Test.make ~name:"flow_table insert+replace"
    (Bechamel.Staged.stage (fun () ->
         incr i;
         ignore
           (Flow_table.insert table ~now:0.0 ~priority:10
              ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet (!i land 0x3FF))))
              ~instructions:(Of_action.output (Of_types.Port_no.Physical 1))
              ~idle_timeout:0.0 ~hard_timeout:0.0 ~cookie:0L)))

let bench_group_select () =
  let gt = Group_table.create () in
  ignore
    (Group_table.apply gt
       (Of_msg.Group_mod.add_select ~group_id:1
          ~buckets:
            (List.init 8 (fun i ->
                 Of_msg.Group_mod.bucket
                   [ Of_action.Output (Of_types.Port_no.Physical (10000 + i)) ]))));
  let g = Option.get (Group_table.find gt 1) in
  let i = ref 0 in
  Bechamel.Test.make ~name:"select-group bucket choice (8 buckets)"
    (Bechamel.Staged.stage (fun () ->
         incr i;
         ignore (Group_table.select_bucket g ~flow_hash:(Flow_key.hash (Packet.flow_key (mk_packet !i))))))

let bench_event_heap () =
  Bechamel.Test.make ~name:"event heap push+pop x100"
    (Bechamel.Staged.stage (fun () ->
         let e = Scotch_sim.Engine.create () in
         for k = 1 to 100 do
           ignore (Scotch_sim.Engine.schedule e ~delay:(float_of_int (k mod 17)) (fun () -> ()))
         done;
         Scotch_sim.Engine.run e))

let bench_packet_codec () =
  let pkt =
    Packet.push_encap (Headers.Encap.mpls 7)
      (Packet.push_encap (Headers.Encap.mpls 42) (mk_packet 1))
  in
  Bechamel.Test.make ~name:"packet serialize+parse (2 MPLS labels)"
    (Bechamel.Staged.stage (fun () -> ignore (Codec.parse (Codec.serialize pkt))))

let bench_of_wire () =
  let fm =
    Of_msg.Flow_mod.add ~priority:10 ~idle_timeout:10.0
      ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet 1)))
      ~instructions:(Of_action.output (Of_types.Port_no.Physical 2))
      ()
  in
  let msg = Of_msg.make ~xid:1 (Of_msg.Flow_mod fm) in
  Bechamel.Test.make ~name:"OpenFlow wire encode+decode (flow_mod)"
    (Bechamel.Staged.stage (fun () -> ignore (Of_wire.decode (Of_wire.encode msg))))

let bench_flow_key_hash () =
  let keys = Array.init 256 (fun i -> Packet.flow_key (mk_packet i)) in
  let i = ref 0 in
  Bechamel.Test.make ~name:"flow-key FNV hash"
    (Bechamel.Staged.stage (fun () ->
         incr i;
         ignore (Flow_key.hash keys.(!i land 255))))

let bench_rng () =
  let rng = Rng.create 1 in
  Bechamel.Test.make ~name:"splitmix64 exponential draw"
    (Bechamel.Staged.stage (fun () -> ignore (Rng.exponential rng ~rate:100.0)))

let bench_simulation_throughput () =
  (* end-to-end: events/second of a loaded Scotch simulation *)
  Bechamel.Test.make ~name:"1 simulated second of scotch under 500 fl/s"
    (Bechamel.Staged.stage (fun () ->
         let net = Testbed.scotch_net () in
         let attack = Testbed.attack_source net ~rate:500.0 () in
         Scotch_workload.Source.start attack;
         Testbed.run_until net ~until:1.0))

let run_micro () =
  let open Bechamel in
  let benchmarks =
    Test.make_grouped ~name:"scotch"
      [ bench_flow_table_lookup (); bench_flow_table_insert (); bench_group_select ();
        bench_event_heap (); bench_packet_codec (); bench_of_wire (); bench_flow_key_hash ();
        bench_rng (); bench_simulation_throughput () ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances benchmarks in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let results2 = Analyze.merge ols instances results in
  let out = ref [] in
  Hashtbl.iter
    (fun _instance tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "  %-48s %12.1f ns/op\n" name est;
            out := (name, est) :: !out
          | _ -> Printf.printf "  %-48s (no estimate)\n" name)
        tbl)
    results2;
  List.sort compare !out

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_faults.json.

   Alongside the human tables on stdout, every bench run writes one
   JSON file: per-figure wall-clock timings, the micro-benchmark ns/op
   estimates, and a fast fault-recovery probe (the resilience
   experiment in smoke configuration) with its full recovery ledger and
   digest — so CI can diff fault-handling metrics across commits
   without scraping stdout.

   Each gated probe returns its JSON block with its acceptance
   failures (empty = pass): the experiment module's own [failures]
   function, or a named budget below for what only the bench measures.
   [main] prints one "BUDGET GATE:" line per failure after every
   artifact is written and exits 1 if there is any. *)

let json_escape = Scotch_obs.Registry.json_escape

let json_opt_float = function None -> "null" | Some v -> Printf.sprintf "%.6g" v

let fault_probe ~seed =
  let open Scotch_faults in
  let outcome = Resilience.run_outcome ~seed ~scale:0.25 ~kills:2 ~multiplier:5.0 () in
  let records =
    List.map
      (fun (r : Ledger.record) ->
        Printf.sprintf
          "{\"id\":%d,\"label\":\"%s\",\"injected_at\":%.6g,\"detection_latency_s\":%s,\"time_to_rebalance_s\":%s,\"flows_lost\":%d,\"backup_promoted\":%s}"
          r.Ledger.id (json_escape r.Ledger.label) r.Ledger.injected_at
          (json_opt_float (Ledger.detection_latency r))
          (json_opt_float (Ledger.time_to_rebalance r))
          r.Ledger.flows_lost
          (match r.Ledger.backup_promoted with None -> "null" | Some d -> string_of_int d))
      (Ledger.records outcome.Resilience.ledger)
  in
  Printf.sprintf "{\"ledger_digest\":\"%s\",\"faults\":[%s]}"
    (Ledger.digest outcome.Resilience.ledger)
    (String.concat "," records)

(* The reliable-layer probe: the same smoke resilience run with
   reconciliation on and a 20 % control-channel loss storm (plus one OFA
   stall), reporting the reconciler's convergence metrics. *)
let reconcile_probe ~seed =
  let open Scotch_faults in
  let outcome =
    Resilience.run_outcome ~seed ~scale:0.25 ~kills:2 ~multiplier:5.0 ~reconcile:true
      ~drop_p:0.2 ()
  in
  match Ledger.convergence outcome.Resilience.ledger with
  | None -> "null"
  | Some c ->
    let percentile p =
      match c.Ledger.conv_windows with
      | [] -> None
      | ws ->
        let s = Stats.Samples.create () in
        List.iter (Stats.Samples.add s) ws;
        Some (Stats.Samples.percentile s p)
    in
    Printf.sprintf
      "{\"retries\":%d,\"rules_repaired_missing\":%d,\"rules_repaired_orphan\":%d,\"groups_repaired\":%d,\"resyncs\":%d,\"txns_parked\":%d,\"degraded_switch_seconds\":%.6g,\"chan_dropped\":%d,\"expired_requests\":%d,\"divergence_windows\":%d,\"divergence_window_p50_s\":%s,\"divergence_window_p99_s\":%s,\"reconcile_digest\":\"%s\"}"
      c.Ledger.conv_retries c.Ledger.conv_repaired_missing c.Ledger.conv_repaired_orphans
      c.Ledger.conv_repaired_groups c.Ledger.conv_resyncs c.Ledger.conv_txns_parked
      c.Ledger.conv_degraded_seconds c.Ledger.conv_chan_dropped c.Ledger.conv_expired_requests
      (List.length c.Ledger.conv_windows)
      (json_opt_float (percentile 0.5))
      (json_opt_float (percentile 0.99))
      c.Ledger.conv_digest

(* The graceful-degradation probe: the overload experiment in smoke
   configuration — a flash crowd at 3x the pool's flow-setup capacity
   plus a mid-crowd gray failure — reporting the admission-control,
   circuit-breaker and autoscaler outcome, gated by [Overload.failures]
   (admitted-flow p99 bound, pool convergence, breaker eject/readmit). *)
let overload_probe ~seed =
  let o = Overload.run_outcome ~seed ~scale:0.5 () in
  let within =
    match o.Overload.p99 with Some q -> q <= Overload.p99_bound | None -> false
  in
  ( Printf.sprintf
      "{\"p99_decision_latency_s\":%s,\"p99_bound_s\":%.6g,\"within_bound\":%b,\"launched\":%d,\"delivered\":%d,\"shed\":%d,\"autoscaler_actions\":%d,\"ejects\":%d,\"readmits\":%d,\"peak_pool\":%d,\"final_pool\":%d,\"converged\":%b,\"ledger_digest\":\"%s\",\"trace_digest\":\"%s\"}"
      (json_opt_float o.Overload.p99) Overload.p99_bound within o.Overload.launched
      o.Overload.delivered o.Overload.shed
      (List.length o.Overload.actions)
      o.Overload.ejects o.Overload.readmits (Overload.peak_pool o) o.Overload.final_pool
      (o.Overload.final_pool = Overload.num_active)
      (json_escape o.Overload.ledger_digest)
      (json_escape o.Overload.trace_digest),
    Overload.failures o )

(* The telemetry probe: the sampled-detection experiment in smoke
   configuration — exact polling vs 1/100 packet sampling on the same
   seed and workload — reporting detection quality and the stats-channel
   cost of both paths, gated by [Telemetry.failures] (precision/recall
   and the channel reduction the subsystem exists for). *)
let telemetry_probe ~seed =
  let exact, sampled = Telemetry.summary ~seed ~scale:0.25 () in
  let side (o : Telemetry.outcome) =
    Printf.sprintf
      "{\"msgs\":%d,\"bytes\":%d,\"detected\":%d,\"true_pos\":%d,\"precision\":%.6g,\"recall\":%.6g,\"ttd_s\":%s,\"migrations\":%d}"
      o.Telemetry.o_msgs o.Telemetry.o_bytes o.Telemetry.o_detected o.Telemetry.o_true_pos
      o.Telemetry.o_precision o.Telemetry.o_recall
      (if Float.is_nan o.Telemetry.o_ttd then "null" else Printf.sprintf "%.6g" o.Telemetry.o_ttd)
      o.Telemetry.o_migrations
  in
  ( Printf.sprintf
      "{\"sampling_rate\":%.6g,\"elephants\":%d,\"exact\":%s,\"sampled\":%s,\"msgs_reduction_x\":%.6g,\"bytes_reduction_x\":%.6g}"
      Telemetry.default_rate exact.Telemetry.o_truth (side exact) (side sampled)
      (Telemetry.reduction ~exact ~sampled)
      (Telemetry.bytes_reduction ~exact ~sampled),
    Telemetry.failures ~exact ~sampled )

(* The tenant-isolation probe: the blast-radius experiment in smoke
   configuration — same-seed no-attack baseline vs spoofed-SYN tenant
   flood, with continuous dataplane verification on — reporting the
   victim's p99 movement and delivery, the attacker's shed count and
   the per-function-breaker observation, gated by [Isolation.failures]
   on the isolation contract (victim p99 delta within bound, delivery
   above floor, every shed the attacker's own, zero invariant errors
   under the flood). *)
let isolation_probe ~seed =
  let p = Isolation.run_pair ~seed ~scale:0.5 ~verify:Scotch_core.Config.Continuous () in
  let b = p.Isolation.baseline and a = p.Isolation.attacked in
  let side (o : Isolation.outcome) =
    Printf.sprintf
      "{\"victim_p99_s\":%s,\"victim_delivery\":%.6g,\"victim_launched\":%d,\"victim_shed\":%d,\"attacker_launched\":%d,\"attacker_shed\":%d,\"drained_forwarding\":%d,\"quarantines\":%d,\"readmits\":%d,\"data_ejects\":%d,\"final_pool\":%d,\"verify_checks\":%d,\"verify_errors\":%d,\"ledger_digest\":\"%s\",\"trace_digest\":\"%s\"}"
      (json_opt_float o.Isolation.victim_p99)
      o.Isolation.victim_delivery o.Isolation.victim_launched o.Isolation.victim_shed
      o.Isolation.attacker_launched o.Isolation.attacker_shed o.Isolation.drained_forwarding
      o.Isolation.quarantines o.Isolation.readmits o.Isolation.data_ejects
      o.Isolation.final_pool o.Isolation.verify_checks o.Isolation.verify_errors
      (json_escape o.Isolation.ledger_digest)
      (json_escape o.Isolation.trace_digest)
  in
  let within =
    Float.is_finite p.Isolation.p99_delta
    && p.Isolation.p99_delta <= Isolation.p99_delta_bound
  in
  ( Printf.sprintf
      "{\"p99_delta\":%s,\"p99_delta_bound\":%.6g,\"within_bound\":%b,\"delivery_floor\":%.6g,\"baseline\":%s,\"attacked\":%s}"
      (if Float.is_finite p.Isolation.p99_delta then
         Printf.sprintf "%.6g" p.Isolation.p99_delta
       else "null")
      Isolation.p99_delta_bound within Isolation.delivery_floor (side b) (side a),
    Isolation.failures p )

(* The chaos probe: the deterministic chaos search in smoke
   configuration — a fixed budget of seeded random fault schedules
   judged by the full oracle suite, plus the canary (a deliberately
   broken config the shrinker must reduce and whose repro must replay
   to the same verdict).  [Chaos.search_failures] and
   [Chaos.canary_failures] gate on the pass rate being exactly 1, the
   canary shrinking to [Chaos.canary_max_faults] and the repro
   replaying. *)
let chaos_probe ~seed =
  let module Search = Scotch_chaos.Search in
  let o = Chaos.search ~seed ~schedules:30 () in
  let c, replayed = Chaos.canary ~seed () in
  let canary_original, canary_minimal, shrink_tests =
    match c.Search.shrunk with
    | Some s ->
      ( List.length s.Search.original.Scotch_chaos.Schedule.faults,
        List.length s.Search.minimal.Scotch_chaos.Schedule.faults,
        s.Search.shrink_tests )
    | None -> (0, 0, 0)
  in
  let shrink_ratio =
    if canary_original > 0 then
      float_of_int canary_minimal /. float_of_int canary_original
    else 0.0
  in
  ( Printf.sprintf
      "{\"schedules\":%d,\"faults_injected\":%d,\"determinism_checks\":%d,\"violated_schedules\":%d,\"pass_rate\":%.6g,\"wall_s\":%.3f,\"canary_caught\":%b,\"canary_faults_original\":%d,\"canary_faults_minimal\":%d,\"canary_shrink_tests\":%d,\"shrink_ratio\":%.6g,\"repro_replayed\":%b}"
      o.Search.explored o.Search.faults_injected o.Search.determinism_checks
      o.Search.violated_schedules (Search.pass_rate o) o.Search.elapsed
      (c.Search.violated_schedules > 0)
      canary_original canary_minimal shrink_tests shrink_ratio replayed,
    Chaos.search_failures o @ Chaos.canary_failures c ~replayed )

(* The predictive-scaling probe: the overload experiment at a moderate
   (5x) flash crowd run twice on the same seed — [Config.scaling =
   Reactive], then [Predictive] — gated by
   [Overload.predictive_failures] on the predictive autoscaler's
   contract: an earlier first scale-up, strictly less shedding and an
   admitted-flow p99 no worse than reactive, at the same peak pool
   size, with the pool still draining back down. *)
let predictive_multiplier = 5.0

let predictive_probe ~seed =
  let run scaling =
    Overload.run_outcome ~seed ~scale:0.5 ~multiplier:predictive_multiplier ~scaling ()
  in
  let reactive = run Scotch_core.Config.Reactive in
  let predictive = run Scotch_core.Config.Predictive in
  let side (o : Overload.outcome) =
    Printf.sprintf
      "{\"p99_decision_latency_s\":%s,\"shed\":%d,\"launched\":%d,\"delivered\":%d,\"peak_pool\":%d,\"final_pool\":%d,\"first_scale_up_s\":%s,\"autoscaler_actions\":%d,\"trace_digest\":\"%s\"}"
      (json_opt_float o.Overload.p99) o.Overload.shed o.Overload.launched o.Overload.delivered
      (Overload.peak_pool o) o.Overload.final_pool
      (json_opt_float (Overload.first_scale_up o))
      (List.length o.Overload.actions)
      (json_escape o.Overload.trace_digest)
  in
  let verdicts = Overload.predictive_verdicts ~reactive ~predictive in
  ( Printf.sprintf "{\"multiplier\":%.6g,\"reactive\":%s,\"predictive\":%s,%s}"
      predictive_multiplier (side reactive) (side predictive)
      (String.concat ","
         (List.map (fun (key, ok, _) -> Printf.sprintf "\"%s\":%b" key ok) verdicts)),
    Overload.predictive_failures ~reactive ~predictive )

(* The model-validation probe: the analytic OFA queueing model swept
   against the discrete-event OFA (lib/experiments/model_check.ml),
   reporting per-point predicted vs simulated queue depth, Packet-In
   latency and blocking with the worst sub-saturation relative errors
   — gated by [Model_check.failures].  Written both as the "model"
   block of BENCH_core.json and standalone as BENCH_model.json. *)
let model_probe ~seed =
  let o = Model_check.summary ~seed ~scale:0.5 () in
  let points =
    String.concat ","
      (List.map
         (fun (p : Model_check.point) ->
           Printf.sprintf
             "\n    {\"rho\":%.6g,\"sim_queue\":%.6g,\"model_queue\":%.6g,\"queue_err\":%.6g,\"sim_sojourn_s\":%.6g,\"model_sojourn_s\":%.6g,\"sojourn_err\":%.6g,\"sim_blocking\":%.6g,\"model_blocking\":%.6g,\"blocking_err\":%.6g}"
             p.Model_check.rho p.Model_check.sim_queue p.Model_check.model_queue
             p.Model_check.queue_err p.Model_check.sim_sojourn p.Model_check.model_sojourn
             p.Model_check.sojourn_err p.Model_check.sim_blocking p.Model_check.model_blocking
             p.Model_check.blocking_err)
         o.Model_check.points)
  in
  let failures = Model_check.failures o in
  ( Printf.sprintf
      "{\"max_queue_err\":%.6g,\"max_sojourn_err\":%.6g,\"max_blocking_err\":%.6g,\"err_bound\":%.6g,\"within_bound\":%b,\"saturation_cutoff\":%.6g,\"digest\":\"%s\",\"points\":[%s]}"
      o.Model_check.max_queue_err o.Model_check.max_sojourn_err o.Model_check.max_blocking_err
      Model_check.err_bound (failures = []) Model_check.saturation_cutoff o.Model_check.digest
      points,
    failures )

let write_model_json ~seed ~model_block =
  let file = "BENCH_model.json" in
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"bench\": \"scotch-model\",\n  \"seed\": %d,\n  \"model\": %s\n}\n"
    seed model_block;
  close_out oc;
  Printf.printf "wrote %s\n%!" file

(* The incremental-verification probe: the resilience workload in smoke
   configuration run twice — [Config.verify = Off], then [Continuous] —
   reporting engine events/sec for both plus the verifier's per-update
   latency percentiles and full-rescan audit ledger.

   Two overhead lenses are exported.  [overhead_frac] is the raw
   events/s throughput lost versus Off — honest but dominated by how
   fast the simulator itself is: this engine retires an event in well
   under a microsecond, so ANY per-update verification (trie lookups,
   class re-walks, periodic O(model) audits) reads as a large fraction
   of it.  [realtime_frac] is the deployment-relevant budget: verifier
   wall-seconds spent per SIMULATED second, i.e. the fraction of a real
   controller's wall clock continuous verification would consume on
   this same update stream at its real arrival times.  The gates hold
   [realtime_frac] within [verify_realtime_budget], bound the p99
   per-update latency, require every full-rescan equivalence audit to
   agree with the maintained diagnostic set and allow no error on the
   clean workload. *)

let verify_realtime_budget = 0.15
let verify_p99_budget_us = 2000.0

let verify_probe_run ~seed ~mode =
  let module O = Scotch_obs.Obs in
  O.reset ();
  O.disable ();
  let config = { Scotch_core.Config.default with Scotch_core.Config.verify = mode } in
  let t0 = Unix.gettimeofday () in
  let outcome = Resilience.run_outcome ~config ~seed ~scale:0.25 ~kills:2 ~multiplier:5.0 () in
  let wall = Unix.gettimeofday () -. t0 in
  let engine = outcome.Resilience.net.Testbed.engine in
  let events = Scotch_sim.Engine.processed engine in
  let sim_s = Scotch_sim.Engine.now engine in
  (wall, events, sim_s, outcome.Resilience.verify)

let verify_probe_best ~seed ~mode ~reps =
  let best = ref (verify_probe_run ~seed ~mode) in
  for _ = 2 to reps do
    let ((w, _, _, _) as r) = verify_probe_run ~seed ~mode in
    let bw, _, _, _ = !best in
    if w < bw then best := r
  done;
  !best

let verify_probe ~seed =
  let module C = Scotch_core.Config in
  ignore (verify_probe_run ~seed ~mode:C.Off) (* warm-up *);
  let off_wall, off_events, _, _ = verify_probe_best ~seed ~mode:C.Off ~reps:3 in
  let cont_wall, cont_events, sim_s, hooks =
    verify_probe_best ~seed ~mode:C.Continuous ~reps:3
  in
  let rate n wall = float_of_int n /. wall in
  let off_rate = rate off_events off_wall and cont_rate = rate cont_events cont_wall in
  (* fraction of Off-mode event throughput lost to continuous checks *)
  let overhead = 1.0 -. (cont_rate /. off_rate) in
  (* verifier wall-seconds per simulated second of the update stream *)
  let realtime = if sim_s > 0.0 then (cont_wall -. off_wall) /. sim_s else 0.0 in
  let incr =
    match Option.bind hooks Scotch_verify.Hooks.incremental with
    | Some incr -> incr
    | None -> failwith "verify probe: Continuous run installed no incremental verifier"
  in
  let st = Scotch_verify.Incremental.stats incr in
  let errors =
    List.length (Scotch_verify.Diagnostic.errors (Scotch_verify.Incremental.diagnostics incr))
  in
  let mismatches = st.Scotch_verify.Incremental.equiv_mismatches in
  let p99_us = st.Scotch_verify.Incremental.p99_us in
  let failures =
    List.concat
      [ Report.check (realtime <= verify_realtime_budget)
          (Printf.sprintf "continuous verification consumes %.1f%% of real time, budget is %g%%"
             (100.0 *. realtime) (100.0 *. verify_realtime_budget));
        Report.check (p99_us <= verify_p99_budget_us)
          (Printf.sprintf "verify p99 update latency %.0fus exceeds %gus" p99_us
             verify_p99_budget_us);
        Report.check (mismatches = 0)
          (Printf.sprintf "%d equivalence audit(s) disagreed with the incremental diagnostic set"
             mismatches);
        Report.check (errors = 0)
          (Printf.sprintf "%d error diagnostic(s) on the clean resilience workload" errors) ]
  in
  ( Printf.sprintf
    "{\n\
    \    \"workload\": \"resilience smoke: 2 vswitch kills mid flash crowd, scale 0.25\",\n\
    \    \"off\": {\"wall_s\":%.3f,\"engine_events\":%d,\"events_per_s\":%.0f},\n\
    \    \"continuous\": {\"wall_s\":%.3f,\"engine_events\":%d,\"events_per_s\":%.0f,\"sim_s\":%.1f,\"updates\":%d,\"classes_touched\":%d,\"class_count\":%d,\"p50_update_us\":%.1f,\"p99_update_us\":%.1f,\"equiv_checks\":%d,\"equiv_mismatches\":%d,\"errors\":%d},\n\
    \    \"overhead_frac\": %.4f,\n\
    \    \"realtime_frac\": %.4f\n\
    \  }"
    off_wall off_events off_rate cont_wall cont_events cont_rate sim_s
    st.Scotch_verify.Incremental.updates st.Scotch_verify.Incremental.classes_touched
    st.Scotch_verify.Incremental.class_count st.Scotch_verify.Incremental.p50_us p99_us
    st.Scotch_verify.Incremental.equiv_checks mismatches errors overhead realtime,
    failures )

(* ------------------------------------------------------------------ *)
(* BENCH_core.json: the observability overhead probe.

   The same loaded flash-crowd simulation run twice — recording off,
   then on — reporting engine events/sec and Packet-Ins/sec for both.
   The budget is [obs_overhead_budget] with everything enabled; the
   obs-disabled path must be free (pull-style counters only). *)

let obs_overhead_budget = 0.10

let obs_probe_run ~seed ~enabled =
  let module O = Scotch_obs.Obs in
  O.reset ();
  if enabled then O.enable () else O.disable ();
  let t0 = Unix.gettimeofday () in
  let net = Testbed.scotch_net ~seed () in
  let attack = Testbed.attack_source net ~rate:500.0 () in
  let client = Testbed.client_source net ~i:0 ~rate:20.0 () in
  Scotch_workload.Source.start attack;
  Scotch_workload.Source.start client;
  Testbed.run_until net ~until:2.0;
  let wall = Unix.gettimeofday () -. t0 in
  let events = Scotch_sim.Engine.processed net.Testbed.engine in
  let pins =
    (Scotch_controller.Controller.counters net.Testbed.ctrl)
      .Scotch_controller.Controller.packet_ins
  in
  (wall, events, pins)

(* Wall-clock timings at the 10 ms scale are noisy (GC, scheduler):
   repeat each variant and keep the fastest run, the usual way to
   denoise a micro-measurement. *)
let obs_probe_best ~seed ~enabled ~reps =
  let best = ref (obs_probe_run ~seed ~enabled) in
  for _ = 2 to reps do
    let ((w, _, _) as r) = obs_probe_run ~seed ~enabled in
    let bw, _, _ = !best in
    if w < bw then best := r
  done;
  !best

let write_core_json ~seed =
  let module O = Scotch_obs.Obs in
  ignore (obs_probe_run ~seed ~enabled:false) (* warm-up *);
  let off_wall, off_events, off_pins = obs_probe_best ~seed ~enabled:false ~reps:5 in
  let on_wall, on_events, on_pins = obs_probe_best ~seed ~enabled:true ~reps:5 in
  let tr = O.tracer () in
  let trace_events = Scotch_obs.Trace.emitted tr in
  let series = Scotch_obs.Registry.size (O.registry ()) in
  O.disable ();
  O.reset ();
  (* the verify probe resets/disables obs itself, so it must run after
     the obs measurements are captured *)
  let verify_block, verify_failures = verify_probe ~seed in
  let model_block, model_failures = model_probe ~seed in
  let rate n wall = float_of_int n /. wall in
  let overhead = (on_wall /. off_wall) -. 1.0 in
  let file = "BENCH_core.json" in
  let oc = open_out file in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"scotch-core-obs\",\n\
    \  \"seed\": %d,\n\
    \  \"workload\": \"scotch_net, 500 fl/s attack + 20 fl/s client, 2 simulated s\",\n\
    \  \"obs_off\": {\"wall_s\":%.3f,\"engine_events\":%d,\"events_per_s\":%.0f,\"packet_ins\":%d,\"packet_ins_per_s\":%.0f},\n\
    \  \"obs_on\": {\"wall_s\":%.3f,\"engine_events\":%d,\"events_per_s\":%.0f,\"packet_ins\":%d,\"packet_ins_per_s\":%.0f,\"series\":%d,\"trace_events\":%d},\n\
    \  \"overhead_frac\": %.4f,\n\
    \  \"verify\": %s,\n\
    \  \"model\": %s\n\
     }\n"
    seed off_wall off_events (rate off_events off_wall) off_pins (rate off_pins off_wall)
    on_wall on_events (rate on_events on_wall) on_pins (rate on_pins on_wall) series
    trace_events overhead verify_block model_block;
  close_out oc;
  write_model_json ~seed ~model_block;
  Printf.printf "wrote %s (obs overhead %+.1f%%: %.0f -> %.0f events/s)\n%!" file
    (100.0 *. overhead) (rate off_events off_wall) (rate on_events on_wall);
  Report.check (overhead <= obs_overhead_budget)
    (Printf.sprintf "obs overhead %.1f%% exceeds the %g%% budget" (100.0 *. overhead)
       (100.0 *. obs_overhead_budget))
  @ verify_failures @ model_failures

let write_json ~seed ~scale ~figures:figs ~micro =
  let file = "BENCH_faults.json" in
  (* run the probes in a fixed order before opening the file: each one
     resets/toggles the shared obs world *)
  let fault_block = fault_probe ~seed in
  let reconcile_block = reconcile_probe ~seed in
  let overload_block, overload_failures = overload_probe ~seed in
  let predictive_block, predictive_failures = predictive_probe ~seed in
  let telemetry_block, telemetry_failures = telemetry_probe ~seed in
  let isolation_block, isolation_failures = isolation_probe ~seed in
  let chaos_block, chaos_failures = chaos_probe ~seed in
  let module O = Scotch_obs.Obs in
  O.disable ();
  O.reset ();
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"bench\": \"scotch-faults\",\n  \"seed\": %d,\n  \"scale\": %.6g,\n"
    seed scale;
  Printf.fprintf oc "  \"figures\": [%s],\n"
    (String.concat ","
       (List.map
          (fun (n, dt) -> Printf.sprintf "\n    {\"name\":\"%s\",\"wall_s\":%.3f}" (json_escape n) dt)
          figs));
  Printf.fprintf oc "  \"micro\": [%s],\n"
    (String.concat ","
       (List.map
          (fun (n, ns) ->
            Printf.sprintf "\n    {\"name\":\"%s\",\"ns_per_op\":%.1f}" (json_escape n) ns)
          micro));
  Printf.fprintf oc "  \"fault_recovery\": %s,\n" fault_block;
  Printf.fprintf oc "  \"reconciliation\": %s,\n" reconcile_block;
  Printf.fprintf oc "  \"overload\": %s,\n" overload_block;
  Printf.fprintf oc "  \"predictive_overload\": %s,\n" predictive_block;
  Printf.fprintf oc "  \"telemetry\": %s,\n" telemetry_block;
  Printf.fprintf oc "  \"isolation\": %s,\n" isolation_block;
  Printf.fprintf oc "  \"chaos\": %s\n}\n" chaos_block;
  close_out oc;
  Printf.printf "wrote %s\n%!" file;
  (* the isolation block alone, so tenant blast-radius numbers can be
     diffed across commits without the full faults bench *)
  let oc = open_out "BENCH_isolation.json" in
  Printf.fprintf oc "%s\n" isolation_block;
  close_out oc;
  print_endline "wrote BENCH_isolation.json";
  List.concat
    [ overload_failures; predictive_failures; telemetry_failures; isolation_failures;
      chaos_failures ]

(* Every gate failure of a bench run, one line each; exit 1 if any. *)
let report_gates failures =
  List.iter (Printf.printf "BUDGET GATE: %s\n") failures;
  if failures <> [] then exit 1

let usage_error fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "bench: %s\nusage: main.exe [--scale S] [--seed N] [smoke|micro|FIGURE...]\n" s;
      exit 2)
    fmt

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 1.0 and seed = ref 42 in
  let micro = ref false and smoke = ref false and names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when Float.is_finite s && s > 0.0 -> scale := s
      | _ -> usage_error "--scale must be a finite positive number, got %S" v);
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some s -> seed := s
      | None -> usage_error "--seed must be an integer, got %S" v);
      parse rest
    | [ ("--scale" | "--seed") as flag ] -> usage_error "%s needs a value" flag
    | "micro" :: rest ->
      micro := true;
      parse rest
    | "smoke" :: rest ->
      smoke := true;
      parse rest
    | name :: rest ->
      if String.length name >= 2 && String.sub name 0 2 = "--" then
        usage_error "unknown option %s" name;
      names := name :: !names;
      parse rest
  in
  parse args;
  if !smoke then begin
    (* CI smoke: skip the figures and Bechamel, run just the fast
       probes, write the JSON artifacts and report the gates *)
    print_endline "== bench smoke: probes only ==";
    let core = write_core_json ~seed:!seed in
    report_gates (core @ write_json ~seed:!seed ~scale:!scale ~figures:[] ~micro:[])
  end
  else if !micro then begin
    print_endline "== micro-benchmarks (Bechamel) ==";
    let ns = run_micro () in
    let core = write_core_json ~seed:!seed in
    report_gates (core @ write_json ~seed:!seed ~scale:!scale ~figures:[] ~micro:ns)
  end
  else begin
    Printf.printf
      "Scotch (CoNEXT 2014) — full reproduction bench: every figure of the evaluation\n";
    Printf.printf
      "(scale %.2f, seed %d; pass figure names to select, `micro` for Bechamel, `smoke` for \
       the CI probes)\n\n"
      !scale !seed;
    let timings = run_figures (List.rev !names) ~seed:!seed ~scale:!scale in
    print_endline "== micro-benchmarks (Bechamel) ==";
    let ns = run_micro () in
    let core = write_core_json ~seed:!seed in
    report_gates (core @ write_json ~seed:!seed ~scale:!scale ~figures:timings ~micro:ns)
  end
