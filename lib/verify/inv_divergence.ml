(** Invariant: intent/actual divergence (reliable layer).

    Diff each reliable-managed switch's intent store against the
    captured device tables.  Entries younger than the repair grace — on
    either side — may still be in flight and are skipped, mirroring the
    reconciler; failed switches are skipped (the resync-at-recovery
    path owns them).  An entry's age is [snap.now − recorded_at] (intent)
    or [snap.now − installed_at] (device), so it ages with the snapshot.

    The oracle is a rule {e slot} — (table, priority, match), the
    identity a device ADD replaces on — plus the switch's group set.
    {!node} joins the device rules and intents by slot and grades each
    one; the incremental verifier grades just the slots a delta touched,
    and the {!slot_deadline}/{!groups_deadline} times tell it when an
    in-grace entry ages into visibility, so pure time passage also
    triggers the right re-grades. *)

open Scotch_openflow
open Scotch_switch
module D = Diagnostic
module S = Snapshot

let name = "divergence"

(* Still inside the repair grace: [at] is a recording or install time. *)
let in_grace snap (st : S.intent_state) at = snap.S.now -. at < st.S.grace

let owned (st : S.intent_state) cookie = List.mem cookie st.S.owned

let mk (n : S.node) = D.make ~dpid:n.S.dpid ~severity:D.Error ~invariant:D.Divergence

(** Findings for one rule slot of the live reliable-managed node [n]:
    [device] is the rule the device holds in the slot, [intent] the
    intent recorded for it.  At most one finding: a durable intent the
    device lacks, or a reconciler-owned device rule with no intent. *)
let slot snap st (n : S.node) ~table_id ~(device : Flow_table.rule option)
    ~(intent : S.intent_rule option) =
  match (device, intent) with
  | None, Some ir when ir.S.ir_durable && not (in_grace snap st ir.S.ir_recorded_at) ->
    [ mk n ~table_id
        ~rule:(Format.asprintf "prio %d %a" ir.S.ir_priority Of_match.pp ir.S.ir_match)
        "durable intent rule is missing from the device" ]
  | Some r, None
    when owned st r.Flow_table.cookie && not (in_grace snap st r.Flow_table.installed_at) ->
    [ mk n ~table_id ~rule:(Inv_common.pp_rule r)
        "device rule with a reconciler-owned cookie has no intent (orphan)" ]
  | _ -> []

(** When {!slot}'s verdict can next change with no update: the time its
    in-grace side (the one a finding would name) leaves the grace. *)
let slot_deadline snap st ~(device : Flow_table.rule option) ~(intent : S.intent_rule option) =
  match (device, intent) with
  | None, Some ir when ir.S.ir_durable && in_grace snap st ir.S.ir_recorded_at ->
    Some (ir.S.ir_recorded_at +. st.S.grace)
  | Some r, None when owned st r.Flow_table.cookie && in_grace snap st r.Flow_table.installed_at ->
    Some (r.Flow_table.installed_at +. st.S.grace)
  | _ -> None

(** Group findings for the live node [n] against its intent groups:
    intent groups out of grace must exist with the intended buckets, and
    every device group needs an intent. *)
let groups snap st (n : S.node) (igs : S.intent_group list) =
  List.filter_map
    (fun (ig : S.intent_group) ->
      if in_grace snap st ig.S.ig_recorded_at then None
      else
        match List.find_opt (fun (g : S.group) -> g.S.group_id = ig.S.ig_id) n.S.groups with
        | None ->
          Some (mk n (Printf.sprintf "intent group %d is missing from the device" ig.S.ig_id))
        | Some g when g.S.group_type <> ig.S.ig_type || g.S.buckets <> ig.S.ig_buckets ->
          Some
            (mk n (Printf.sprintf "group %d buckets on the device differ from intent" ig.S.ig_id))
        | Some _ -> None)
    igs
  @ List.filter_map
      (fun (g : S.group) ->
        if List.exists (fun (ig : S.intent_group) -> ig.S.ig_id = g.S.group_id) igs then None
        else Some (mk n (Printf.sprintf "device group %d has no intent (orphan)" g.S.group_id)))
      n.S.groups

(** Earliest time an in-grace intent group leaves the grace. *)
let groups_deadline snap st (igs : S.intent_group list) =
  List.fold_left
    (fun acc (ig : S.intent_group) ->
      if in_grace snap st ig.S.ig_recorded_at then begin
        let due = ig.S.ig_recorded_at +. st.S.grace in
        match acc with Some d when d <= due -> acc | _ -> Some due
      end
      else acc)
    None igs

(** The reliable-managed node to grade, if it exists and is live. *)
let live_node snap dpid =
  match S.node snap dpid with Some n when not n.S.failed -> Some n | _ -> None

(** Divergence findings for one reliable-managed switch: device rules
    and intents hash-joined by slot, each slot graded by {!slot}. *)
let node snap (st : S.intent_state) (inode : S.intent_node) =
  match live_node snap inode.S.int_dpid with
  | None -> [] (* coverage already reports controlled switches missing entirely *)
  | Some n ->
    let intents = Hashtbl.create (List.length inode.S.int_rules + 1) in
    List.iter
      (fun (ir : S.intent_rule) ->
        Hashtbl.replace intents (ir.S.ir_table, ir.S.ir_priority, ir.S.ir_match) ir)
      inode.S.int_rules;
    let on_device =
      List.concat_map
        (fun (table_id, rules) ->
          List.concat_map
            (fun (r : Flow_table.rule) ->
              let k = (table_id, r.Flow_table.priority, r.Flow_table.match_) in
              let intent = Hashtbl.find_opt intents k in
              Hashtbl.remove intents k;
              slot snap st n ~table_id ~device:(Some r) ~intent)
            rules)
        n.S.rules
    in
    let intent_only =
      Hashtbl.fold
        (fun (table_id, _, _) ir acc ->
          slot snap st n ~table_id ~device:None ~intent:(Some ir) @ acc)
        intents []
    in
    on_device @ intent_only @ groups snap st n inode.S.int_groups

let snapshot snap =
  match snap.S.intents with
  | None -> []
  | Some st -> List.concat_map (node snap st) st.S.per_switch
