(* One measured simulation instance of a benchmark workload.

   Usage: bench.exe --workload NAME --seed N [--instance I] [--trace]
                    [--quick] [--spans FILE]

   Builds the workload's network from the seed, warms it up to steady
   state, then runs the measured window by driving Scotch_sim.Engine.step
   itself until a sentinel event at the window end fires.  Every timing
   is taken here, around calls this file makes into the simulator's
   public functions; nothing inside the simulator is instrumented.
   After the window the network is drained (untimed) and its outcome is
   digested and checked.  One JSON object is printed on stdout.

   With --trace the same instance additionally times every engine step,
   samples queue depths between steps, counts rule mutations and
   installs through the public observer hooks, and at the window end
   times side-effect-free public calls on the live state.  None of this
   may change the simulation: the digest of a traced instance must equal
   the untraced one, which run.py checks. *)

open Scotch_experiments
open Scotch_workload
module Engine = Scotch_sim.Engine
module Switch = Scotch_switch.Switch
module Flow_table = Scotch_switch.Flow_table
module Ofa = Scotch_switch.Ofa
module C = Scotch_controller.Controller
module Sc = Scotch_core.Scotch
module Db = Scotch_core.Flow_info_db
module Sched = Scotch_core.Sched
module R = Scotch_reliable.Reliable
module Hooks = Scotch_verify.Hooks
module Inc = Scotch_verify.Incremental
module Host = Scotch_topo.Host
module Topology = Scotch_topo.Topology

external now_ns : unit -> (int[@untagged]) = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

(* The host-speed reference kernel (clock_stubs.c): one fixed unit of
   work that shares nothing with the simulator; returns its wall ns. *)
external ref_init : unit -> unit = "perfbench_ref_init"
external ref_kernel : unit -> (int[@untagged]) = "perfbench_ref_kernel_byte" "perfbench_ref_kernel"
[@@noalloc]

(* ------------------------------------------------------------------ *)
(* Spans, kept in memory and written at exit. *)

type span = { name : string; start_ns : int; end_ns : int; parent : string }

let spans = ref []

let timed name f =
  let a = now_ns () in
  let r = f () in
  spans := { name; start_ns = a; end_ns = now_ns (); parent = "instance" } :: !spans;
  r

let span_s name =
  match List.find_opt (fun s -> s.name = name) !spans with
  | Some s -> float_of_int (s.end_ns - s.start_ns) *. 1e-9
  | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Workloads.  Each yields the live network plus what the measurement
   loop needs to know about it. *)

type scenario = {
  engine : Engine.t;
  topo : Topology.t;
  ctrl : C.t;
  app : Sc.t;
  vswitches : Switch.t array;
  verify : Hooks.t option;
  reliable : R.t option;
  warm_until : float;  (** the measured window starts here *)
  warm_refs : int;
      (** reference-kernel samples taken at even steps through the
          warm-up; none where the warm-up is too short to absorb the cache
          pollution they cause *)
  window_end : float;
  subwindows : int;
      (** the window is timed in this many equal slices, each rescaled
          to the reference host speed by the kernel timed beside it *)
  client_flows : unit -> (Flow_gen.launched * Host.t) list;
  drain : unit -> unit;  (** untimed, after the window *)
}

(* ddos-steady: the paper's headline scenario on the default Scotch
   network.  vswitch rules idle out after 30 s, so rules level off by
   t = 30 s; the window starts there. *)
let ddos ~seed ~quick =
  let net = Testbed.scotch_net ~seed ~num_clients:8 () in
  let spec_of = Sizes.pareto ~alpha:1.3 ~min_packets:2 ~max_packets:100 ~pkt_rate:200.0 () in
  let clients = Array.init 8 (fun i -> Testbed.client_source net ~i ~rate:5.0 ~spec_of ()) in
  let attack = Testbed.attack_source net ~rate:1000.0 () in
  Array.iter Source.start clients;
  Source.start attack;
  let warm_until, window = if quick then (3.0, 2.0) else (30.0, 15.0) in
  { engine = net.Testbed.engine; topo = net.Testbed.topo; ctrl = net.Testbed.ctrl;
    app = net.Testbed.app; vswitches = net.Testbed.vswitches; verify = net.Testbed.verify;
    reliable = net.Testbed.reliable; warm_until; warm_refs = 8; window_end = warm_until +. window;
    subwindows = 10;
    client_flows =
      (fun () ->
        List.concat_map
          (fun s -> List.map (fun l -> (l, net.Testbed.server)) (Source.launched s))
          (Array.to_list clients));
    drain =
      (fun () -> Testbed.run_until net ~until:(Engine.now net.Testbed.engine +. 2.0)) }

(* fabric-sampled: 16-rack leaf-spine with sampled telemetry.  Rack r's
   attacker floods rack r+1; rack r's client talks to rack r+8. *)
let fabric ~seed ~quick =
  let racks = 16 in
  let config =
    { Scotch_core.Config.default with Scotch_core.Config.detection = Scotch_core.Config.Sampled 0.01 }
  in
  let fb = Testbed.fabric ~seed ~config ~num_racks:racks () in
  let h = fb.Testbed.f_hosts in
  let dst_of r = h.((r + 8) mod racks).(3) in
  let clients =
    Array.init racks (fun r ->
        let src = h.(r).(2) and dst = dst_of r in
        let rng = Scotch_util.Rng.split (Engine.rng fb.Testbed.f_engine) in
        (Source.create fb.Testbed.f_engine ~rng ~host:src ~dst ~rate:3.0
           ~spec_of:(Sizes.mice_and_elephants ~elephant_fraction:0.1 ~elephant_packets:2000 ())
           (), dst))
  in
  let attackers =
    Array.init racks (fun r ->
        Testbed.fabric_attack fb ~src:h.(r).(1) ~dst:h.((r + 1) mod racks).(0)
          ~rate:(2000.0 /. float_of_int racks))
  in
  Array.iter (fun (s, _) -> Source.start s) clients;
  Array.iter Source.start attackers;
  let engine = fb.Testbed.f_engine in
  let warm_until, window = if quick then (3.0, 2.0) else (30.0, 30.0) in
  { engine; topo = fb.Testbed.f_topo; ctrl = fb.Testbed.f_ctrl; app = fb.Testbed.f_app;
    vswitches = fb.Testbed.f_vswitches; verify = fb.Testbed.f_verify; reliable = None;
    warm_until; warm_refs = 8; window_end = warm_until +. window; subwindows = 15;
    client_flows =
      (fun () ->
        List.concat_map
          (fun (s, dst) -> List.map (fun l -> (l, dst)) (Source.launched s))
          (Array.to_list clients));
    drain = (fun () -> Engine.run ~until:(Engine.now engine +. 2.0) engine) }

(* storm-verified: the resilience flash crowd under the control-channel
   storm (20 % loss on every channel, an edge OFA stall, two vswitch
   crashes) with the reliable layer, continuous verification and
   observability all on.  The window spans the flash crowd, the storm
   and the recovery; the drain runs reconcile rounds until converged. *)
let storm_scale ~quick = if quick then 0.1 else 0.2
let storm_multiplier = 2.0
let storm_base_rate = 25.0

let storm ~seed ~quick =
  let module Plan = Scotch_faults.Plan in
  let params =
    { (Resilience.trace_params ~scale:(storm_scale ~quick) ~multiplier:storm_multiplier) with
      Tracegen.base_rate = storm_base_rate }
  in
  let outage = Stdlib.max 6.0 (0.3 *. params.Tracegen.duration) in
  let plan =
    Plan.merge
      (Resilience.kill_plan ~params ~kills:2 ~outage)
      (Resilience.impairment_plan ~params ~drop_p:0.2)
  in
  let horizon =
    Stdlib.max (params.Tracegen.duration +. 2.0) (Plan.last_activity plan +. 6.0)
  in
  let trace = Tracegen.generate (Scotch_util.Rng.create (seed + 17)) params in
  let config =
    { Scotch_core.Config.default with Scotch_core.Config.verify = Scotch_core.Config.Continuous }
  in
  let net =
    Testbed.scotch_net ~config ~seed ~num_vswitches:Resilience.num_vswitches
      ~num_backups:Resilience.num_backups ~num_clients:params.Tracegen.num_sources
      ~num_servers:params.Tracegen.num_destinations ~reconcile:true ()
  in
  ignore
    (Scotch_faults.Injector.run
       (Scotch_faults.Injector.env ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ())
       plan);
  let sources =
    Array.init params.Tracegen.num_sources (fun i -> Testbed.client_source net ~i ~rate:1.0 ())
  in
  let launched =
    Tracegen.replay net.Testbed.engine trace ~sources ~destinations:net.Testbed.servers
  in
  let reliable = net.Testbed.reliable in
  { engine = net.Testbed.engine; topo = net.Testbed.topo; ctrl = net.Testbed.ctrl;
    app = net.Testbed.app; vswitches = net.Testbed.vswitches; verify = net.Testbed.verify;
    reliable; warm_until = 0.5; warm_refs = 0; window_end = horizon;
    (* a transient: its slices are not comparable with each other, but
       each is rescaled by the reference kernel timed beside it *)
    subwindows = 8;
    client_flows =
      (fun () ->
        List.concat
          (List.mapi
             (fun i (ev : Tracegen.flow_event) ->
               match launched.(i) with
               | Some l -> [ (l, net.Testbed.servers.(ev.Tracegen.dst)) ]
               | None -> [])
             trace));
    drain =
      (fun () ->
        match reliable with
        | None -> ()
        | Some r ->
          let interval = (R.config r).R.reconcile_interval in
          let rounds = ref 0 in
          while (not (R.converged r)) && !rounds < 16 do
            incr rounds;
            Testbed.run_until net ~until:(Engine.now net.Testbed.engine +. interval)
          done) }

let build name ~seed ~quick =
  match name with
  | "ddos-steady" -> ddos ~seed ~quick
  | "fabric-sampled" -> fabric ~seed ~quick
  | "storm-verified" ->
    Scotch_obs.Obs.enable ();
    storm ~seed ~quick
  | other -> invalid_arg ("unknown workload " ^ other)

(* ------------------------------------------------------------------ *)
(* Read-only views of the live network. *)

let all_switches sc =
  let acc = ref [] in
  Topology.iter_switches sc.topo (fun s -> acc := s :: !acc);
  List.rev !acc

let sum_switches sc f = List.fold_left (fun a s -> a + f s) 0 (all_switches sc)
let ofa_sum sc f = sum_switches sc (fun s -> f (Ofa.counters (Switch.ofa s)))

let link_drops sc =
  sum_switches sc (fun s ->
      List.fold_left
        (fun a (_, _, link) ->
          match link with Some l -> a + Scotch_sim.Link.dropped l | None -> a)
        0 (Switch.ports_snapshot s))

let chan_dropped sc =
  let n = ref 0 in
  C.iter_switches sc.ctrl (fun sw -> n := !n + sw.C.chan_dropped);
  !n

let sched_sum sc f =
  List.fold_left
    (fun a dpid -> match Sc.sched_of sc.app dpid with Some s -> a + f s | None -> a)
    0 (Sc.managed_dpids sc.app)

let incremental sc = Option.bind sc.verify Hooks.incremental

(* Managed switches Scotch holds on the overlay whose device has no
   select group: the redirect was lost (a dropped group-mod on the
   fire-and-forget install path is never resent), so every new flow still
   queues at the switch's own agent. *)
let overlay_wedged sc =
  List.length
    (List.filter
       (fun dpid ->
         Sc.is_active sc.app dpid
         &&
         match Topology.switch sc.topo dpid with
         | Some sw -> Scotch_switch.Group_table.size (Switch.group_table sw) = 0
         | None -> false)
       (Sc.managed_dpids sc.app))

(* Simulator counters sampled at the window edges; the per-layer metrics
   are their deltas over the window. *)
type counts = {
  c_rx : int;
  c_pin_sent : int;
  c_pin_dropped : int;
  c_fm_handled : int;
  c_fm_dropped : int;
  c_ctrl_pins : int;
  c_ctrl_fms : int;
  c_expired : int;
  c_chan_dropped : int;
  c_link_drops : int;
  c_overlay : int;
  c_physical : int;
  c_dropped : int;
  c_migrations : int;
  c_diverted : int;
  c_shed : int;
  c_db : int;
  c_exact_bytes : int;
  c_sampled_bytes : int;
  c_retries : int;
  c_repairs : int;
  c_resyncs : int;
  c_windows : int;
  c_vupdates : int;
  c_vclasses : int;
  c_trace_events : int;
}

let counts sc =
  let k = Sc.counters sc.app and cc = C.counters sc.ctrl in
  let rs = Option.map R.stats sc.reliable in
  let ri f = match rs with Some s -> f s | None -> 0 in
  let vs = Option.map Inc.stats (incremental sc) in
  let vi f = match vs with Some s -> f s | None -> 0 in
  { c_rx = sum_switches sc (fun s -> (Switch.counters s).Switch.rx);
    c_pin_sent = ofa_sum sc (fun c -> c.Ofa.pin_sent);
    c_pin_dropped = ofa_sum sc (fun c -> c.Ofa.pin_dropped);
    c_fm_handled = ofa_sum sc (fun c -> c.Ofa.flow_mods_handled);
    c_fm_dropped = ofa_sum sc (fun c -> c.Ofa.flow_mods_dropped);
    c_ctrl_pins = cc.C.packet_ins; c_ctrl_fms = cc.C.flow_mods;
    c_expired = cc.C.expired_requests; c_chan_dropped = chan_dropped sc;
    c_link_drops = link_drops sc;
    c_overlay = k.Sc.flows_overlay; c_physical = k.Sc.flows_physical;
    c_dropped = k.Sc.flows_dropped; c_migrations = k.Sc.migrations_completed;
    c_diverted = sched_sum sc (fun s -> (Sched.counters s).Sched.diverted_overlay);
    c_shed = sched_sum sc Sched.shed_total;
    c_db = Db.size (Sc.db sc.app);
    c_exact_bytes = snd (Sc.exact_channel sc.app);
    c_sampled_bytes = snd (Sc.sampled_channel sc.app);
    c_retries = ri (fun s -> s.R.retries);
    c_repairs = ri (fun s -> s.R.repairs_missing + s.R.repairs_orphan + s.R.repairs_group);
    c_resyncs = ri (fun s -> s.R.resyncs);
    c_windows =
      (match sc.reliable with Some r -> List.length (R.divergence_windows r) | None -> 0);
    c_vupdates = vi (fun s -> s.Inc.updates);
    c_vclasses = vi (fun s -> s.Inc.classes_touched);
    c_trace_events = Scotch_obs.Trace.emitted (Scotch_obs.Obs.tracer ()) }

(* ------------------------------------------------------------------ *)
(* Log-linear histogram of step durations in ns (64 sub-buckets per
   power of two), so millions of steps cost no allocation. *)

let sub = 64
let hist = Array.make (63 * sub) 0

let bucket v =
  if v < sub then v
  else
    let e = ref 0 and x = ref v in
    while !x >= 2 * sub do
      x := !x lsr 1;
      incr e
    done;
    (!e + 1) * sub + (!x - sub)

let bucket_value b =
  if b < sub then float_of_int b
  else
    let e = (b / sub) - 1 and m = (b mod sub) + sub in
    float_of_int m *. (2.0 ** float_of_int e)

let hist_quantile q =
  let total = Array.fold_left ( + ) 0 hist in
  let target = int_of_float (Float.ceil (q *. float_of_int total)) in
  let acc = ref 0 and res = ref 0.0 and found = ref false in
  Array.iteri
    (fun b n ->
      if not !found then begin
        acc := !acc + n;
        if !acc >= target && n > 0 then begin
          res := bucket_value b;
          found := true
        end
      end)
    hist;
  !res

(* ------------------------------------------------------------------ *)
(* The measured window. *)

type window = {
  wall_ns : int;  (** the slices' sum: reference-kernel time is left out *)
  slices_ns : int list;  (** wall time of each sub-window *)
  refs_ns : int list;
      (** the reference kernel's time before the first slice and after
          each slice, so slice j lies between entries j and j+1 *)
  minor : float;
  promoted : float;
  majors : int;
  events : int;
  pending_max : int;
  queue_max : int;
  mutations : int;
  installs : int;
}

let run_window sc ~trace =
  let e = sc.engine in
  let stop = ref false in
  let t_start = Engine.now e in
  let marks = ref [] and refs = ref [] in
  for j = 1 to sc.subwindows do
    let at =
      if j = sc.subwindows then sc.window_end
      else t_start +. ((sc.window_end -. t_start) *. float_of_int j /. float_of_int sc.subwindows)
    in
    ignore
      (Engine.schedule_at e ~at (fun () ->
           let a = now_ns () in
           refs := ref_kernel () :: !refs;
           marks := (a, now_ns ()) :: !marks;
           if j = sc.subwindows then stop := true))
  done;
  let mutations = ref 0 and installs = ref 0 in
  if trace then begin
    (* The verifier owns the update tap when it runs; its own update
       tally counts the same mutations then (see layer metrics). *)
    if sc.verify = None then
      List.iter
        (fun s -> Switch.set_on_update s (Some (fun _ -> incr mutations)))
        (all_switches sc);
    Sc.on_install sc.app (fun _ payloads -> installs := !installs + List.length payloads)
  end;
  let switches = Array.of_list (all_switches sc) in
  let pending_max = ref 0 and queue_max = ref 0 in
  let sample_period = 1e-3 in
  let next_sample = ref (Engine.now e) in
  let gc0 = Gc.quick_stat () in
  let p0 = Engine.processed e in
  refs := [ ref_kernel () ];
  let t0 = now_ns () in
  if trace then begin
    let slice = ref (int_of_float (Engine.now e)) in
    let slice_start = ref t0 in
    while not !stop do
      let a = now_ns () in
      if not (Engine.step e) then stop := true;
      let b = now_ns () in
      let d = b - a in
      let i = bucket d in
      hist.(i) <- hist.(i) + 1;
      let p = Engine.pending e in
      if p > !pending_max then pending_max := p;
      let now = Engine.now e in
      if now >= !next_sample then begin
        next_sample := now +. sample_period;
        Array.iter
          (fun s ->
            let q, pq = Ofa.queue_depths (Switch.ofa s) in
            if q + pq > !queue_max then queue_max := q + pq)
          switches
      end;
      let sec = int_of_float now in
      if sec <> !slice then begin
        spans :=
          { name = Printf.sprintf "window.sim_second.%d" !slice; start_ns = !slice_start;
            end_ns = b; parent = "window" }
          :: !spans;
        slice := sec;
        slice_start := b
      end
    done
  end
  else
    while not !stop do
      if not (Engine.step e) then stop := true
    done;
  let t1 = now_ns () in
  let gc1 = Gc.quick_stat () in
  let slices_ns =
    snd
      (List.fold_left
         (fun (prev, acc) (a, b) -> (b, (a - prev) :: acc))
         (t0, []) (List.rev !marks))
  in
  spans := { name = "window"; start_ns = t0; end_ns = t1; parent = "instance" } :: !spans;
  if trace && sc.verify = None then
    List.iter (fun s -> Switch.set_on_update s None) (all_switches sc);
  { wall_ns = List.fold_left ( + ) 0 slices_ns;
    slices_ns = List.rev slices_ns;
    refs_ns = List.rev !refs;
    minor = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    majors = gc1.Gc.major_collections - gc0.Gc.major_collections;
    events = Engine.processed e - p0; pending_max = !pending_max; queue_max = !queue_max;
    mutations = !mutations; installs = !installs }

(* ------------------------------------------------------------------ *)
(* End-of-window probes: timed side-effect-free calls on the live state
   (Flow_table.stats / peek / iter_rules, Of_wire.encode,
   Flow_info_db.find).  Never Flow_table.size, sweep or lookup: those
   expire rules, fire observers or bump counters. *)

let median_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  if Array.length a = 0 then 0.0 else a.(Array.length a / 2)

let time_reps n f =
  median_of
    (List.init n (fun _ ->
         let a = now_ns () in
         ignore (Sys.opaque_identity (f ()));
         float_of_int (now_ns () - a)))

let context_of_key (key : Scotch_packet.Flow_key.t) =
  let mac = Scotch_packet.Mac.of_host_id 1 in
  let spec =
    if key.Scotch_packet.Flow_key.proto = 6 then Flow_gen.syn_spec
    else { Flow_gen.packets = 2; payload = 100; interval = 0.01 }
  in
  let packet =
    Flow_gen.packet ~flow_id:0 ~created:0.0 ~src_mac:mac ~dst_mac:mac
      ~ip_src:key.Scotch_packet.Flow_key.ip_src ~ip_dst:key.Scotch_packet.Flow_key.ip_dst
      ~src_port:key.Scotch_packet.Flow_key.l4_src ~dst_port:key.Scotch_packet.Flow_key.l4_dst
      ~spec ~seq:0 ()
  in
  Scotch_openflow.Of_match.context ~in_port:0 packet

let key_of_match (m : Scotch_openflow.Of_match.t) =
  let module M = Scotch_openflow.Of_match in
  match (m.M.ip_src, m.M.ip_dst, m.M.ip_proto) with
  | Some s, Some d, Some proto ->
    Some
      (Scotch_packet.Flow_key.make ~ip_src:(Scotch_packet.Ipv4_addr.of_int s.M.value)
         ~ip_dst:(Scotch_packet.Ipv4_addr.of_int d.M.value) ~proto ?l4_src:m.M.l4_src
         ?l4_dst:m.M.l4_dst ())
  | _ -> None

type probes = {
  rules_live : int;
  stats_us : float;
  stats_rules : int;
  encode_us : float;
  reply_bytes : int;
  peek_ns : float;
  peek_hits : int;
  find_ns : float;
}

let probe sc =
  let now = Engine.now sc.engine in
  let tables =
    List.concat_map (fun v -> Array.to_list (Switch.tables v)) (Array.to_list sc.vswitches)
  in
  let sized = List.map (fun t -> (t, List.length (Flow_table.stats t ~now))) tables in
  let rules_live = List.fold_left (fun a (_, n) -> a + n) 0 sized in
  let largest, stats_rules =
    List.fold_left (fun (bt, bn) (t, n) -> if n > bn then (t, n) else (bt, bn)) (List.hd sized) sized
  in
  let stats_us =
    timed "probe.flow_table.stats" (fun () ->
        time_reps 5 (fun () -> Flow_table.stats largest ~now) *. 1e-3)
  in
  let reply =
    Scotch_openflow.Of_msg.make ~xid:0
      (Scotch_openflow.Of_msg.Flow_stats_reply (Flow_table.stats largest ~now))
  in
  let encode_us =
    timed "probe.of_wire.encode" (fun () ->
        time_reps 5 (fun () -> Scotch_openflow.Of_wire.encode reply) *. 1e-3)
  in
  let reply_bytes = Bytes.length (Scotch_openflow.Of_wire.encode reply) in
  (* contexts for live exact rules of every vswitch, at most 4096 *)
  let samples = ref [] and n = ref 0 in
  List.iter
    (fun t ->
      Flow_table.iter_rules t (fun r ->
          if !n < 4096 then
            match key_of_match r.Flow_table.match_ with
            | Some key ->
              incr n;
              samples := (t, key, context_of_key key) :: !samples
            | None -> ()))
    tables;
  let samples = Array.of_list !samples in
  let m = Array.length samples in
  let reps = if m = 0 then 0 else 1 + (200_000 / m) in
  let peek_hits = ref 0 in
  let peek_ns =
    timed "probe.flow_table.peek" (fun () ->
        let a = now_ns () in
        for _ = 1 to reps do
          Array.iter
            (fun (t, _, ctx) ->
              match Flow_table.peek t ~now ctx with Some _ -> incr peek_hits | None -> ())
            samples
        done;
        if m = 0 then 0.0 else float_of_int (now_ns () - a) /. float_of_int (reps * m))
  in
  let db = Sc.db sc.app in
  let find_ns =
    timed "probe.flow_info_db.find" (fun () ->
        let a = now_ns () in
        for _ = 1 to reps do
          Array.iter (fun (_, key, _) -> ignore (Sys.opaque_identity (Db.find db key))) samples
        done;
        if m = 0 then 0.0 else float_of_int (now_ns () - a) /. float_of_int (reps * m))
  in
  { rules_live; stats_us; stats_rules; encode_us; reply_bytes; peek_ns;
    peek_hits = (if reps = 0 then 0 else !peek_hits / reps); find_ns }

(* ------------------------------------------------------------------ *)
(* Outcome digest and checks. *)

let digest sc flows =
  let b = Buffer.create 65536 in
  let k = Sc.counters sc.app in
  Printf.bprintf b "%d|%h|%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d|" (Engine.processed sc.engine)
    (Engine.now sc.engine) k.Sc.flows_seen k.Sc.flows_overlay k.Sc.flows_physical
    k.Sc.flows_dropped k.Sc.flows_unroutable k.Sc.elephants_detected k.Sc.migrations_completed
    k.Sc.activations k.Sc.withdrawals k.Sc.vswitch_failures k.Sc.quarantines k.Sc.readmissions
    k.Sc.promotions k.Sc.demotions;
  List.iter
    (fun ((l : Flow_gen.launched), dst) ->
      match Host.flow_record dst l.Flow_gen.flow_id with
      | None -> Printf.bprintf b "%h:-;" l.Flow_gen.started
      | Some r -> Printf.bprintf b "%h:%d:%h;" l.Flow_gen.started r.Host.packets r.Host.first_seen)
    flows;
  (match sc.reliable with Some r -> Buffer.add_string b (R.digest r) | None -> ());
  Digest.to_hex (Digest.string (Buffer.contents b))

let checks sc flows =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  let delivered = ref 0 in
  List.iter
    (fun ((l : Flow_gen.launched), dst) ->
      match Host.flow_record dst l.Flow_gen.flow_id with
      | None -> ()
      | Some r ->
        incr delivered;
        if r.Host.first_seen < l.Flow_gen.started then
          fail "flow %d delivered before it started" l.Flow_gen.flow_id;
        if r.Host.packets > l.Flow_gen.spec.Flow_gen.packets then
          fail "flow %d delivered %d of %d packets" l.Flow_gen.flow_id r.Host.packets
            l.Flow_gen.spec.Flow_gen.packets)
    flows;
  if flows = [] then fail "no client flows launched";
  if !delivered = 0 then fail "no client flow delivered";
  (match sc.reliable with
  | Some r -> if not (R.converged r) then fail "reliable layer never converged"
  | None -> ());
  (match incremental sc with
  | Some i ->
    let s = Inc.stats i in
    if s.Inc.equiv_mismatches > 0 then
      fail "%d incremental/full-rescan verify mismatches" s.Inc.equiv_mismatches;
    let report =
      Scotch_verify.check
        (Scotch_verify.Snapshot.capture ~scotch:sc.app ~now:(Engine.now sc.engine) sc.topo)
    in
    let errors = List.length (Scotch_verify.Diagnostic.errors report) in
    if errors > 0 then fail "%d verify errors after recovery" errors
  | None -> ());
  List.rev !fails

(* ------------------------------------------------------------------ *)
(* JSON output. *)

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let json_string s = Printf.sprintf "%S" s

let write_spans file ~workload ~seed ~instance =
  let oc = open_out file in
  let base = List.fold_left (fun a s -> min a s.start_ns) max_int !spans in
  Printf.fprintf oc "{\"workload\": %s, \"seed\": %d, \"instance\": %d, \"spans\": [\n"
    (json_string workload) seed instance;
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"name\": %s, \"parent\": %s, \"start_us\": %.3f, \"dur_us\": %.3f}\n"
        (if i = 0 then "" else ",")
        (json_string s.name) (json_string s.parent)
        (float_of_int (s.start_ns - base) *. 1e-3)
        (float_of_int (s.end_ns - s.start_ns) *. 1e-3))
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc

let () =
  let workload = ref "" and seed = ref 42 and instance = ref 0 and trace = ref false in
  let quick = ref false and spans_file = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--instance", Arg.Set_int instance, "I instance index (derives the simulation seed)");
      ("--trace", Arg.Set trace, " time steps and layers (per-layer metrics)");
      ("--quick", Arg.Set quick, " shortened warm-up and window (self-check)");
      ("--spans", Arg.Set_string spans_file, "FILE write the in-memory spans here at exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N [--instance I] [--trace] [--quick]";
  (* Instances of one run simulate distinct seeds derived from --seed. *)
  let sim_seed = Hashtbl.hash (!seed, !instance) land 0x3FFFFFFF in
  Scotch_obs.Obs.reset ();
  ref_init ();
  (* the first call pays for cold caches and TLB *)
  ignore (ref_kernel ());
  (* Reference-kernel samples before the build, through the warm-up and
     after it; their own time is left out of warmup_s. *)
  let setup_refs = ref (List.init 3 (fun _ -> ref_kernel ())) and refs_excluded = ref 0 in
  let t_start = now_ns () in
  let sc = timed "setup.build" (fun () -> build !workload ~seed:sim_seed ~quick:!quick) in
  let t_built = Engine.now sc.engine in
  for j = 1 to sc.warm_refs do
    let at =
      t_built +. ((sc.warm_until -. t_built) *. float_of_int j /. float_of_int (sc.warm_refs + 1))
    in
    ignore
      (Engine.schedule_at sc.engine ~at (fun () ->
           let a = now_ns () in
           setup_refs := ref_kernel () :: !setup_refs;
           refs_excluded := !refs_excluded + (now_ns () - a)))
  done;
  timed "setup.warmup" (fun () -> Engine.run ~until:sc.warm_until sc.engine);
  setup_refs := List.init 3 (fun _ -> ref_kernel ()) @ !setup_refs;
  let before = counts sc in
  let lat0 = match incremental sc with Some i -> i.Inc.lat_total | None -> 0 in
  let w = run_window sc ~trace:!trace in
  let after = counts sc in
  let verify_busy_s =
    match incremental sc with
    | Some i ->
      (* the verifier times each incremental update into a ring *)
      let n = i.Inc.lat_total - lat0 in
      let kept = min n Inc.lat_cap in
      let sum = ref 0.0 in
      for j = i.Inc.lat_total - kept to i.Inc.lat_total - 1 do
        sum := !sum +. i.Inc.lat.(j mod Inc.lat_cap)
      done;
      if kept = 0 then 0.0 else !sum *. float_of_int n /. float_of_int kept
    | None -> 0.0
  in
  let verify_stats = Option.map Inc.stats (incremental sc) in
  let wedged = overlay_wedged sc in
  let pr = if !trace then Some (probe sc) else None in
  let window_sim = sc.window_end -. sc.warm_until in
  timed "drain" (fun () -> sc.drain ());
  let flows = sc.client_flows () in
  let dig, failures = timed "check" (fun () -> (digest sc flows, checks sc flows)) in
  spans := { name = "instance"; start_ns = t_start; end_ns = now_ns (); parent = "" } :: !spans;
  let in_window =
    List.filter
      (fun ((l : Flow_gen.launched), _) ->
        l.Flow_gen.started >= sc.warm_until && l.Flow_gen.started < sc.window_end)
      flows
  in
  let delays = ref [] and failed = ref 0 in
  List.iter
    (fun ((l : Flow_gen.launched), dst) ->
      match Host.flow_record dst l.Flow_gen.flow_id with
      | None -> incr failed
      | Some r -> delays := (r.Host.first_seen -. l.Flow_gen.started) *. 1e3 :: !delays)
    in_window;
  let per s x = float_of_int x /. s in
  let d f = f after - f before in
  let gc = Gc.quick_stat () in
  let fields = ref [] in
  let add k v = fields := (k, v) :: !fields in
  let addf k v = add k (json_float v) in
  let addi k v = add k (string_of_int v) in
  add "workload" (json_string !workload);
  addi "seed" !seed;
  addi "instance" !instance;
  addi "sim_seed" sim_seed;
  add "traced" (string_of_bool !trace);
  add "digest" (json_string dig);
  add "failures" ("[" ^ String.concat ", " (List.map json_string failures) ^ "]");
  addf "build_s" (span_s "setup.build");
  addf "warmup_s" (span_s "setup.warmup" -. (float_of_int !refs_excluded *. 1e-9));
  addf "window_wall_s" (float_of_int w.wall_ns *. 1e-9);
  addf "window_sim_s" window_sim;
  let add_secs k ns =
    add k ("[" ^ String.concat "," (List.map (fun n -> json_float (float_of_int n *. 1e-9)) ns) ^ "]")
  in
  add_secs "slice_wall_s" w.slices_ns;
  add_secs "slice_ref_s" w.refs_ns;
  add_secs "setup_ref_s" (List.rev !setup_refs);
  addi "overlay_wedged" wedged;
  addi "events" w.events;
  addf "minor_words" w.minor;
  addf "promoted_words" w.promoted;
  addi "major_collections" w.majors;
  addi "top_heap_words" gc.Gc.top_heap_words;
  addi "client_launched" (List.length in_window);
  addi "client_failed" !failed;
  add "client_delays_ms"
    ("[" ^ String.concat "," (List.map (Printf.sprintf "%.6f") (List.rev !delays)) ^ "]");
  let s = window_sim in
  let layers =
    [ ("sim.events_per_sim_s", per s w.events);
      ("sim.pending_max", float_of_int w.pending_max);
      ("sim.link_drops", float_of_int (d (fun c -> c.c_link_drops)));
      ("switch.rx_per_sim_s", per s (d (fun c -> c.c_rx)));
      ("switch.rule_mutations_per_sim_s",
       per s (if sc.verify = None then w.mutations else d (fun c -> c.c_vupdates)));
      ("switch.ofa.pin_sent", float_of_int (d (fun c -> c.c_pin_sent)));
      ("switch.ofa.pin_dropped", float_of_int (d (fun c -> c.c_pin_dropped)));
      ("switch.ofa.flow_mods_handled", float_of_int (d (fun c -> c.c_fm_handled)));
      ("switch.ofa.flow_mods_dropped", float_of_int (d (fun c -> c.c_fm_dropped)));
      ("switch.ofa.queue_max", float_of_int w.queue_max);
      ("controller.packet_ins_per_sim_s", per s (d (fun c -> c.c_ctrl_pins)));
      ("controller.flow_mods_per_sim_s", per s (d (fun c -> c.c_ctrl_fms)));
      ("controller.expired_requests", float_of_int (d (fun c -> c.c_expired)));
      ("controller.chan_dropped", float_of_int (d (fun c -> c.c_chan_dropped)));
      ("core.flows_overlay", float_of_int (d (fun c -> c.c_overlay)));
      ("core.flows_physical", float_of_int (d (fun c -> c.c_physical)));
      ("core.flows_dropped", float_of_int (d (fun c -> c.c_dropped)));
      ("core.migrations", float_of_int (d (fun c -> c.c_migrations)));
      ("core.sched.diverted", float_of_int (d (fun c -> c.c_diverted)));
      ("core.sched.shed", float_of_int (d (fun c -> c.c_shed)));
      ("core.overlay_wedged", float_of_int wedged);
      ("core.db_entries", float_of_int after.c_db);
      ("core.db_growth_per_sim_s", per s (d (fun c -> c.c_db)));
      ("core.exact_channel_bytes_per_sim_s", per s (d (fun c -> c.c_exact_bytes)));
      ("core.sampled_channel_bytes_per_sim_s", per s (d (fun c -> c.c_sampled_bytes)));
      ("core.installs_per_sim_s", per s w.installs);
      ("reliable.retries", float_of_int (d (fun c -> c.c_retries)));
      ("reliable.repairs", float_of_int (d (fun c -> c.c_repairs)));
      ("reliable.resyncs", float_of_int (d (fun c -> c.c_resyncs)));
      ("reliable.divergence_p99_s",
       match sc.reliable with
       | Some r ->
         let ws = Array.of_list (R.divergence_windows r) in
         Array.sort compare ws;
         let n = Array.length ws in
         if n = 0 then 0.0 else ws.(min (n - 1) (int_of_float (0.99 *. float_of_int n)))
       | None -> 0.0);
      ("verify.updates", float_of_int (d (fun c -> c.c_vupdates)));
      ("verify.classes_touched", float_of_int (d (fun c -> c.c_vclasses)));
      ("verify.update_p50_us",
       match verify_stats with Some v -> v.Inc.p50_us | None -> 0.0);
      ("verify.update_p99_us",
       match verify_stats with Some v -> v.Inc.p99_us | None -> 0.0);
      ("verify.busy_s", verify_busy_s);
      ("obs.trace_events", float_of_int (d (fun c -> c.c_trace_events)));
      ("obs.series", float_of_int (Scotch_obs.Registry.size (Scotch_obs.Obs.registry ())));
      ("gc.minor_words_per_event", w.minor /. float_of_int (max 1 w.events));
      ("gc.promoted_words_per_event", w.promoted /. float_of_int (max 1 w.events));
      ("gc.major_collections", float_of_int w.majors) ]
    @ (if !trace then
         [ ("sim.step_p50_us", hist_quantile 0.5 *. 1e-3);
           ("sim.step_p99_us", hist_quantile 0.99 *. 1e-3) ]
       else [])
    @
    match pr with
    | Some p ->
      [ ("switch.vswitch_rules_live", float_of_int p.rules_live);
        ("switch.flow_table.stats_us", p.stats_us);
        ("switch.flow_table.stats_rules", float_of_int p.stats_rules);
        ("switch.flow_table.peek_ns", p.peek_ns);
        ("switch.flow_table.peek_hits", float_of_int p.peek_hits);
        ("openflow.encode_stats_reply_us", p.encode_us);
        ("openflow.stats_reply_bytes", float_of_int p.reply_bytes);
        ("core.db_find_ns", p.find_ns) ]
    | None -> []
  in
  add "layers"
    ("{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_float v)) layers)
    ^ "}");
  if !spans_file <> "" then
    write_spans !spans_file ~workload:!workload ~seed:!seed ~instance:!instance;
  print_string
    ("{"
    ^ String.concat ", "
        (List.rev_map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) v) !fields)
    ^ "}\n")
