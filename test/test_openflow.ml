(* Tests for Scotch_openflow: match semantics, actions/instructions,
   message construction and wire-codec round trips. *)

open Scotch_openflow
open Scotch_packet

let mk_packet ?(src_port = 1234) ?(dst_port = 80) () =
  Packet.tcp_syn ~flow_id:1 ~created:0.0 ~src_mac:(Mac.of_host_id 1)
    ~dst_mac:(Mac.of_host_id 2) ~ip_src:(Ipv4_addr.make 10 0 0 1)
    ~ip_dst:(Ipv4_addr.make 10 0 0 2) ~src_port ~dst_port ()

let ctx ?tunnel_id ?(in_port = 1) pkt = Of_match.context ?tunnel_id ~in_port pkt

(* ------------------------------------------------------------------ *)
(* Port numbers *)

let test_port_no_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "roundtrip" true
        (Of_types.Port_no.equal p (Of_types.Port_no.of_int (Of_types.Port_no.to_int p))))
    [ Of_types.Port_no.Physical 1; Physical 10042; In_port; Controller; All; Local; Any ]

let test_port_no_invalid () =
  Alcotest.(check bool) "reserved gap rejected" true
    (try
       ignore (Of_types.Port_no.of_int 0xFFFFFF01);
       false
     with Invalid_argument _ -> true)

let test_packet_in_reason () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "roundtrip" true
        (Of_types.Packet_in_reason.of_int (Of_types.Packet_in_reason.to_int r) = r))
    [ Of_types.Packet_in_reason.No_match; Action; Invalid_ttl ]

(* ------------------------------------------------------------------ *)
(* Match semantics *)

let test_wildcard_matches_everything () =
  Alcotest.(check bool) "wildcard" true (Of_match.matches Of_match.wildcard (ctx (mk_packet ())));
  Alcotest.(check bool) "is_wildcard" true (Of_match.is_wildcard Of_match.wildcard);
  Alcotest.(check int) "specificity 0" 0 (Of_match.specificity Of_match.wildcard)

let test_in_port_match () =
  let m = Of_match.with_in_port 3 Of_match.wildcard in
  Alcotest.(check bool) "matches port 3" true (Of_match.matches m (ctx ~in_port:3 (mk_packet ())));
  Alcotest.(check bool) "rejects port 4" false (Of_match.matches m (ctx ~in_port:4 (mk_packet ())))

let test_exact_flow_match () =
  let pkt = mk_packet () in
  let m = Of_match.exact_flow (Packet.flow_key pkt) in
  Alcotest.(check bool) "matches own packet" true (Of_match.matches m (ctx pkt));
  let other = mk_packet ~src_port:9999 () in
  Alcotest.(check bool) "rejects other flow" false (Of_match.matches m (ctx other));
  Alcotest.(check int) "five fields" 5 (Of_match.specificity m)

let test_masked_ip_match () =
  let m =
    Of_match.with_ip_src ~mask:(Ipv4_addr.prefix_mask 8) (Ipv4_addr.make 10 0 0 0)
      Of_match.wildcard
  in
  Alcotest.(check bool) "in prefix" true (Of_match.matches m (ctx (mk_packet ())));
  let outside =
    Packet.tcp_syn ~flow_id:2 ~created:0.0 ~src_mac:(Mac.of_host_id 1)
      ~dst_mac:(Mac.of_host_id 2) ~ip_src:(Ipv4_addr.make 11 0 0 1)
      ~ip_dst:(Ipv4_addr.make 10 0 0 2) ~src_port:1 ~dst_port:80 ()
  in
  Alcotest.(check bool) "out of prefix" false (Of_match.matches m (ctx outside))

let test_mpls_match () =
  let m = Of_match.with_mpls_label 42 Of_match.wildcard in
  let plain = mk_packet () in
  Alcotest.(check bool) "no label" false (Of_match.matches m (ctx plain));
  let labeled = Packet.push_encap (Headers.Encap.mpls 42) plain in
  Alcotest.(check bool) "right label" true (Of_match.matches m (ctx labeled));
  let wrong = Packet.push_encap (Headers.Encap.mpls 7) plain in
  Alcotest.(check bool) "wrong label" false (Of_match.matches m (ctx wrong))

let test_tunnel_match () =
  let m = Of_match.with_tunnel_id 5 Of_match.wildcard in
  Alcotest.(check bool) "tunnel 5" true (Of_match.matches m (ctx ~tunnel_id:5 (mk_packet ())));
  Alcotest.(check bool) "no tunnel" false (Of_match.matches m (ctx (mk_packet ())));
  Alcotest.(check bool) "other tunnel" false (Of_match.matches m (ctx ~tunnel_id:6 (mk_packet ())))

let test_l4_and_proto_match () =
  let m = Of_match.(wildcard |> with_ip_proto 6 |> with_l4_dst 80) in
  Alcotest.(check bool) "tcp :80" true (Of_match.matches m (ctx (mk_packet ())));
  Alcotest.(check bool) "tcp :81" false
    (Of_match.matches m (ctx (mk_packet ~dst_port:81 ())))

(* ------------------------------------------------------------------ *)
(* Actions and instructions *)

let test_instruction_helpers () =
  let instrs =
    [ Of_action.Apply_actions [ Of_action.Push_mpls 1 ]; Of_action.Goto_table 1;
      Of_action.Apply_actions [ Of_action.Output (Of_types.Port_no.Physical 2) ] ]
  in
  Alcotest.(check int) "actions flattened" 2
    (List.length (Of_action.actions_of_instructions instrs));
  Alcotest.(check (option int)) "goto found" (Some 1)
    (Of_action.goto_of_instructions instrs);
  Alcotest.(check (option int)) "no goto" None
    (Of_action.goto_of_instructions (Of_action.output (Of_types.Port_no.Physical 1)))

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let roundtrip msg =
  let msg' = Of_wire.decode (Of_wire.encode msg) in
  Alcotest.(check int) "xid" msg.Of_msg.xid msg'.Of_msg.xid;
  msg'

let test_wire_simple_messages () =
  List.iter
    (fun payload ->
      let msg' = roundtrip (Of_msg.make ~xid:7 payload) in
      Alcotest.(check bool) "payload preserved" true (msg'.Of_msg.payload = payload))
    [ Of_msg.Hello; Of_msg.Echo_request; Of_msg.Echo_reply; Of_msg.Barrier_request;
      Of_msg.Barrier_reply; Of_msg.Error "table full"; Of_msg.Table_stats_request ]

let test_wire_flow_mod () =
  let fm =
    Of_msg.Flow_mod.add ~table_id:1 ~priority:10 ~idle_timeout:10.0 ~hard_timeout:30.5
      ~cookie:0x5C07C4EEL
      ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ())))
      ~instructions:
        [ Of_action.Apply_actions [ Of_action.Push_mpls 3; Of_action.Pop_gre ];
          Of_action.Goto_table 1 ]
      ()
  in
  let msg' = roundtrip (Of_msg.make ~xid:1 (Of_msg.Flow_mod fm)) in
  match msg'.Of_msg.payload with
  | Of_msg.Flow_mod fm' -> Alcotest.(check bool) "equal" true (fm = fm')
  | _ -> Alcotest.fail "wrong payload type"

let test_wire_group_mod () =
  let gm =
    Of_msg.Group_mod.add_select ~group_id:1
      ~buckets:
        [ Of_msg.Group_mod.bucket [ Of_action.Output (Of_types.Port_no.Physical 10001) ];
          Of_msg.Group_mod.bucket ~weight:3
            [ Of_action.Output (Of_types.Port_no.Physical 10002) ] ]
  in
  let msg' = roundtrip (Of_msg.make ~xid:2 (Of_msg.Group_mod gm)) in
  match msg'.Of_msg.payload with
  | Of_msg.Group_mod gm' -> Alcotest.(check bool) "equal" true (gm = gm')
  | _ -> Alcotest.fail "wrong payload type"

let test_wire_packet_in_out () =
  let pkt = Packet.push_encap (Headers.Encap.mpls 9) (mk_packet ()) in
  let pi =
    Of_msg.Packet_in.make ~tunnel_id:44 ~reason:Of_types.Packet_in_reason.No_match ~in_port:3
      pkt
  in
  let msg' = roundtrip (Of_msg.make ~xid:3 (Of_msg.Packet_in pi)) in
  (match msg'.Of_msg.payload with
  | Of_msg.Packet_in pi' ->
    Alcotest.(check (option int)) "tunnel id" (Some 44) pi'.Of_msg.Packet_in.tunnel_id;
    Alcotest.(check int) "in_port" 3 pi'.Of_msg.Packet_in.in_port;
    Alcotest.(check (option int)) "label survives" (Some 9)
      (Packet.outer_mpls_label pi'.Of_msg.Packet_in.packet)
  | _ -> Alcotest.fail "wrong payload type");
  let po = Of_msg.Packet_out.make ~in_port:1 ~actions:[ Of_action.Pop_mpls ] pkt in
  let msg' = roundtrip (Of_msg.make ~xid:4 (Of_msg.Packet_out po)) in
  match msg'.Of_msg.payload with
  | Of_msg.Packet_out po' ->
    Alcotest.(check bool) "actions" true (po'.Of_msg.Packet_out.actions = [ Of_action.Pop_mpls ])
  | _ -> Alcotest.fail "wrong payload type"

let test_wire_stats () =
  let stat =
    { Of_msg.Stats.table_id = 0; priority = 10;
      match_ = Of_match.exact_flow (Packet.flow_key (mk_packet ()));
      packet_count = 1234; byte_count = 567890; duration = 12.5; cookie = 7L }
  in
  let msg' = roundtrip (Of_msg.make ~xid:5 (Of_msg.Flow_stats_reply [ stat; stat ])) in
  (match msg'.Of_msg.payload with
  | Of_msg.Flow_stats_reply [ s1; s2 ] ->
    Alcotest.(check bool) "stats equal" true (s1 = stat && s2 = stat)
  | _ -> Alcotest.fail "wrong payload");
  let msg' =
    roundtrip (Of_msg.make ~xid:6 (Of_msg.Table_stats_reply { active_entries = [ 3; 0 ] }))
  in
  match msg'.Of_msg.payload with
  | Of_msg.Table_stats_reply { active_entries } ->
    Alcotest.(check (list int)) "entries" [ 3; 0 ] active_entries
  | _ -> Alcotest.fail "wrong payload"

let test_wire_bad_version () =
  let b = Of_wire.encode (Of_msg.make ~xid:1 Of_msg.Hello) in
  Bytes.set_uint8 b 0 0x01;
  Alcotest.(check bool) "bad version raises" true
    (try
       ignore (Of_wire.decode b);
       false
     with Of_wire.Parse_error _ -> true)

let test_wire_bad_length () =
  let b = Of_wire.encode (Of_msg.make ~xid:1 Of_msg.Hello) in
  let b = Bytes.cat b (Bytes.make 3 'x') in
  Alcotest.(check bool) "length mismatch raises" true
    (try
       ignore (Of_wire.decode b);
       false
     with Of_wire.Parse_error _ -> true)

(* qcheck: random matches round-trip *)
let match_gen =
  let open QCheck.Gen in
  let addr = map Ipv4_addr.of_int (int_bound 0xFFFFFFF) in
  let field_adders =
    [ map (fun p m -> Of_match.with_in_port p m) (int_bound 100);
      map (fun e m -> Of_match.with_eth_type e m) (int_bound 0xFFFF);
      map (fun a m -> Of_match.with_ip_src a m) addr;
      map2
        (fun a l m -> Of_match.with_ip_src ~mask:(Ipv4_addr.prefix_mask l) a m)
        addr (int_bound 32);
      map (fun a m -> Of_match.with_ip_dst a m) addr;
      map (fun p m -> Of_match.with_ip_proto p m) (int_bound 255);
      map (fun p m -> Of_match.with_l4_src p m) (int_bound 65535);
      map (fun p m -> Of_match.with_l4_dst p m) (int_bound 65535);
      map (fun l m -> Of_match.with_mpls_label l m) (int_bound 0xFFFFF);
      map (fun k m -> Of_match.with_gre_key (Int32.of_int k) m) (int_bound 0xFFFF);
      map (fun t m -> Of_match.with_tunnel_id t m) (int_bound 1000) ]
  in
  map
    (fun adders -> List.fold_left (fun m f -> f m) Of_match.wildcard adders)
    (list_size (int_bound 6) (oneof field_adders))

let prop_match_wire_roundtrip =
  QCheck.Test.make ~name:"match wire round-trip" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Of_match.pp) match_gen)
    (fun m ->
      let fm = Of_msg.Flow_mod.add ~match_:m ~instructions:Of_action.drop () in
      match
        (Of_wire.decode (Of_wire.encode (Of_msg.make ~xid:0 (Of_msg.Flow_mod fm)))).Of_msg.payload
      with
      | Of_msg.Flow_mod fm' -> Of_match.equal fm'.Of_msg.Flow_mod.match_ m
      | _ -> false)

let action_gen =
  let open QCheck.Gen in
  oneof
    [ map (fun p -> Of_action.Output (Of_types.Port_no.Physical p)) (int_bound 20000);
      return (Of_action.Output Of_types.Port_no.Controller);
      return (Of_action.Output Of_types.Port_no.All);
      map (fun g -> Of_action.Group g) (int_bound 100);
      map (fun l -> Of_action.Push_mpls l) (int_bound 0xFFFFF);
      return Of_action.Pop_mpls;
      map (fun k -> Of_action.Push_gre (Int32.of_int k)) (int_bound 0xFFFF);
      return Of_action.Pop_gre;
      map (fun i -> Of_action.Set_eth_dst (Mac.of_host_id i)) (int_bound 0xFFFF);
      map (fun i -> Of_action.Set_eth_src (Mac.of_host_id i)) (int_bound 0xFFFF);
      return Of_action.Dec_ttl;
      return Of_action.Drop ]

let prop_actions_wire_roundtrip =
  QCheck.Test.make ~name:"action list wire round-trip" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_bound 8) action_gen))
    (fun actions ->
      let po = Of_msg.Packet_out.make ~in_port:1 ~actions (mk_packet ()) in
      match
        (Of_wire.decode (Of_wire.encode (Of_msg.make ~xid:0 (Of_msg.Packet_out po)))).Of_msg.payload
      with
      | Of_msg.Packet_out po' -> po'.Of_msg.Packet_out.actions = actions
      | _ -> false)

(* qcheck: the arithmetic size agrees with the rendered length for
   every payload constructor, including flow-stats replies far above the
   16-bit header length *)
let packet_gen =
  let open QCheck.Gen in
  map3
    (fun (sp, dp) len label ->
      let pkt =
        Packet.udp_data ~payload_len:len ~flow_id:1 ~created:0.0 ~src_mac:(Mac.of_host_id 1)
          ~dst_mac:(Mac.of_host_id 2) ~ip_src:(Ipv4_addr.make 10 0 0 1)
          ~ip_dst:(Ipv4_addr.make 10 0 0 2) ~src_port:sp ~dst_port:dp ()
      in
      match label with None -> pkt | Some l -> Packet.push_encap (Headers.Encap.mpls l) pkt)
    (pair (int_bound 65535) (int_bound 65535))
    (int_bound 1400)
    (opt (int_bound 0xFFFFF))

let flow_stat_gen =
  let open QCheck.Gen in
  map3
    (fun (table_id, priority) (packet_count, byte_count) match_ ->
      { Of_msg.Stats.table_id; priority; match_; packet_count; byte_count;
        duration = 1.5; cookie = 7L })
    (pair (int_bound 3) (int_bound 0xFFFF))
    (pair (int_bound 1_000_000) (int_bound 100_000_000))
    match_gen

let bucket_gen =
  QCheck.Gen.(
    map2
      (fun weight actions -> { Of_msg.Group_mod.weight; actions })
      (int_bound 10) (list_size (int_bound 4) action_gen))

let payload_gen : Of_msg.payload QCheck.Gen.t =
  let open QCheck.Gen in
  let instruction =
    oneof
      [ map (fun acts -> Of_action.Apply_actions acts) (list_size (int_bound 4) action_gen);
        map (fun t -> Of_action.Goto_table t) (int_bound 3) ]
  in
  let telemetry_record =
    map2
      (fun (s, d) (sp, dp) ->
        { Of_msg.Telemetry.key =
            Flow_key.make ~ip_src:(Ipv4_addr.of_int s) ~ip_dst:(Ipv4_addr.of_int d) ~proto:6
              ~l4_src:sp ~l4_dst:dp ();
          sampled = sp })
      (pair (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
      (pair (int_bound 65535) (int_bound 65535))
  in
  oneof
    [ oneofl
        [ Of_msg.Hello; Echo_request; Echo_reply; Barrier_request; Barrier_reply;
          Table_stats_request; Group_stats_request; Telemetry_request ];
      map (fun s -> Of_msg.Error s) (string_size (int_bound 64));
      map3
        (fun (table_id, priority) match_ instructions ->
          Of_msg.Flow_mod
            (Of_msg.Flow_mod.add ~table_id ~priority ~idle_timeout:10.0 ~match_ ~instructions
               ()))
        (pair (int_bound 3) (int_bound 0xFFFF))
        match_gen
        (list_size (int_bound 3) instruction);
      map2
        (fun group_id buckets -> Of_msg.Group_mod (Of_msg.Group_mod.add_select ~group_id ~buckets))
        (int_bound 100) (list_size (int_bound 4) bucket_gen);
      map3
        (fun tunnel_id in_port packet ->
          Of_msg.Packet_in
            (Of_msg.Packet_in.make ?tunnel_id ~reason:Of_types.Packet_in_reason.No_match
               ~in_port packet))
        (opt (int_bound 1000)) (int_bound 100) packet_gen;
      map2
        (fun actions packet -> Of_msg.Packet_out (Of_msg.Packet_out.make ~actions packet))
        (list_size (int_bound 4) action_gen) packet_gen;
      map (fun match_ -> Of_msg.Flow_stats_request { table_id = 0xFF; match_ }) match_gen;
      map
        (fun stats -> Of_msg.Flow_stats_reply stats)
        (list_size (frequency [ (3, int_bound 20); (1, int_bound 5000) ]) flow_stat_gen);
      map
        (fun active_entries -> Of_msg.Table_stats_reply { active_entries })
        (list_size (int_bound 4) (int_bound 100_000));
      map
        (fun descs -> Of_msg.Group_stats_reply descs)
        (list_size (int_bound 4)
           (map2
              (fun group_id buckets ->
                { Of_msg.Stats.group_id; group_type = Of_msg.Group_mod.Select; buckets })
              (int_bound 100) (list_size (int_bound 4) bucket_gen)));
      map
        (fun records ->
          Of_msg.Telemetry_reply
            { Of_msg.Telemetry.rate = 0.01; window = 1.0; seen = 100; sampled = 3; records })
        (list_size (int_bound 40) telemetry_record) ]

let prop_encoded_size =
  QCheck.Test.make ~name:"encoded_size = length of encode" ~count:300
    (QCheck.make
       ~print:(fun p ->
         let m = Of_msg.make ~xid:0 p in
         Printf.sprintf "%s: encoded_size %d, encode %d" (Of_msg.kind_name m)
           (Of_wire.encoded_size m) (Bytes.length (Of_wire.encode m)))
       payload_gen)
    (fun p ->
      let m = Of_msg.make ~xid:9 p in
      Of_wire.encoded_size m = Bytes.length (Of_wire.encode m))

(* An exact-polling reply from a vswitch holding ~29k reactive rules:
   about 2 MB, so the u16 header length wraps.  It is sized exactly,
   and the codec refuses to decode it rather than mis-parse it. *)
let test_wire_oversized_reply () =
  let stat i =
    { Of_msg.Stats.table_id = 0; priority = 10;
      match_ = Of_match.exact_flow (Packet.flow_key (mk_packet ~src_port:(i land 0xFFFF) ()));
      packet_count = i; byte_count = 64 * i; duration = 3.0; cookie = 7L }
  in
  let m = Of_msg.make ~xid:1 (Of_msg.Flow_stats_reply (List.init 29_000 stat)) in
  let encoded = Of_wire.encode m in
  Alcotest.(check int) "encoded_size" (Bytes.length encoded) (Of_wire.encoded_size m);
  Alcotest.(check bool) "longer than a u16 length" true (Bytes.length encoded > 0xFFFF);
  Alcotest.(check bool) "decode raises Parse_error" true
    (match Of_wire.decode encoded with
     | (_ : Of_msg.t) -> false
     | exception Of_wire.Parse_error _ -> true)

(* fuzz: corrupting any byte of a valid message must either decode to
   SOME message or raise Parse_error — never crash or loop *)
let prop_decode_total =
  let base =
    Of_wire.encode
      (Of_msg.make ~xid:3
         (Of_msg.Flow_mod
            (Of_msg.Flow_mod.add
               ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ())))
               ~instructions:(Of_action.output (Of_types.Port_no.Physical 1))
               ())))
  in
  QCheck.Test.make ~name:"decode never crashes on corrupted input" ~count:1000
    QCheck.(pair small_nat (int_bound 255))
    (fun (pos, value) ->
      let b = Bytes.copy base in
      let pos = pos mod Bytes.length b in
      Bytes.set_uint8 b pos value;
      match Of_wire.decode b with
      | (_ : Of_msg.t) -> true
      | exception Of_wire.Parse_error _ -> true
      | exception Scotch_packet.Codec.Parse_error _ -> true
      | exception Invalid_argument _ -> true (* out-of-range field values *))

let () =
  Alcotest.run "scotch_openflow"
    [ ( "types",
        [ Alcotest.test_case "port_no roundtrip" `Quick test_port_no_roundtrip;
          Alcotest.test_case "port_no invalid" `Quick test_port_no_invalid;
          Alcotest.test_case "packet_in reason" `Quick test_packet_in_reason ] );
      ( "match",
        [ Alcotest.test_case "wildcard" `Quick test_wildcard_matches_everything;
          Alcotest.test_case "in_port" `Quick test_in_port_match;
          Alcotest.test_case "exact flow" `Quick test_exact_flow_match;
          Alcotest.test_case "masked ip" `Quick test_masked_ip_match;
          Alcotest.test_case "mpls label" `Quick test_mpls_match;
          Alcotest.test_case "tunnel id" `Quick test_tunnel_match;
          Alcotest.test_case "proto + l4" `Quick test_l4_and_proto_match ] );
      ("actions", [ Alcotest.test_case "instruction helpers" `Quick test_instruction_helpers ]);
      ( "wire",
        [ Alcotest.test_case "simple messages" `Quick test_wire_simple_messages;
          Alcotest.test_case "flow_mod" `Quick test_wire_flow_mod;
          Alcotest.test_case "group_mod" `Quick test_wire_group_mod;
          Alcotest.test_case "packet in/out" `Quick test_wire_packet_in_out;
          Alcotest.test_case "stats" `Quick test_wire_stats;
          Alcotest.test_case "bad version" `Quick test_wire_bad_version;
          Alcotest.test_case "bad length" `Quick test_wire_bad_length;
          Alcotest.test_case "oversized reply" `Quick test_wire_oversized_reply;
          QCheck_alcotest.to_alcotest prop_encoded_size;
          QCheck_alcotest.to_alcotest prop_match_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_actions_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_decode_total ] ) ]
