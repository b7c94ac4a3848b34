module Engine = Secpol_sim.Engine

type spec = {
  segments : (string * string list) list;
  links : (string * (string * string)) list;
}

type flow = { id : int; src : string; dsts : string list }

type t = {
  sim : Engine.t;
  spec : spec;
  flows : flow list;
  buses : (string * Bus.t) list;
  gateways : (string * Gateway.t) list;
  whitelists : (string * (int list * int list)) list;
      (* per gateway: (ids crossing a->b, ids crossing b->a) *)
}

let fail fmt = Printf.ksprintf invalid_arg fmt

let segment_names spec = List.map fst spec.segments

let rec find_dup = function
  | [] -> None
  | x :: rest -> if List.mem x rest then Some x else find_dup rest

(* Undirected adjacency: segment -> (neighbour, gateway, direction of the
   gateway predicate that carries segment -> neighbour traffic). *)
let adjacency spec =
  List.concat_map
    (fun (gw, (sa, sb)) -> [ (sa, (sb, gw, `A_to_b)); (sb, (sa, gw, `B_to_a)) ])
    spec.links

let neighbours adj seg = List.filter_map
    (fun (s, edge) -> if s = seg then Some edge else None)
    adj

let validate_spec spec =
  if spec.segments = [] then fail "Topology: no segments";
  let segs = segment_names spec in
  (match find_dup segs with
  | Some s -> fail "Topology: duplicate segment %S" s
  | None -> ());
  let nodes = List.concat_map snd spec.segments in
  (match find_dup nodes with
  | Some n -> fail "Topology: node %S appears in more than one segment" n
  | None -> ());
  let gws = List.map fst spec.links in
  (match find_dup gws with
  | Some g -> fail "Topology: duplicate gateway %S" g
  | None -> ());
  List.iter
    (fun g ->
      if List.mem g segs then
        fail "Topology: gateway %S reuses a segment name" g;
      if List.mem g nodes then fail "Topology: gateway %S reuses a node name" g)
    gws;
  List.iter
    (fun (g, (sa, sb)) ->
      if not (List.mem sa segs) then
        fail "Topology: link %S references unknown segment %S" g sa;
      if not (List.mem sb segs) then
        fail "Topology: link %S references unknown segment %S" g sb;
      if sa = sb then fail "Topology: link %S joins %S to itself" g sa)
    spec.links;
  (* the segment graph must be a tree: paths (and so routing) are unique,
     and a single gateway crash splits the car into exactly two sides *)
  let n_segs = List.length segs in
  if List.length spec.links <> n_segs - 1 then
    fail "Topology: %d segments need exactly %d links (tree), got %d" n_segs
      (n_segs - 1)
      (List.length spec.links);
  let adj = adjacency spec in
  let rec reach visited = function
    | [] -> visited
    | seg :: rest ->
        if List.mem seg visited then reach visited rest
        else
          let next = List.map (fun (s, _, _) -> s) (neighbours adj seg) in
          reach (seg :: visited) (next @ rest)
  in
  let reached = reach [] [ List.hd segs ] in
  List.iter
    (fun s ->
      if not (List.mem s reached) then
        fail "Topology: segment %S is not connected to %S" s (List.hd segs))
    segs

(* Unique tree path from [src] to [dst] as a list of directed edges
   [(gateway, direction)] plus the segments visited (src first). *)
let path adj ~src ~dst =
  let rec dfs visited seg edges_rev segs_rev =
    if seg = dst then Some (List.rev edges_rev, List.rev (seg :: segs_rev))
    else
      List.fold_left
        (fun acc (next, gw, dir) ->
          match acc with
          | Some _ -> acc
          | None ->
              if List.mem next visited then None
              else
                dfs (next :: visited) next
                  ((gw, dir) :: edges_rev)
                  (seg :: segs_rev))
        None (neighbours adj seg)
  in
  match dfs [ src ] src [] [] with
  | Some r -> r
  | None -> fail "Topology: no path from %S to %S" src dst

let create ?(bitrate = 500_000.0) ?(corrupt_prob = 0.0) ?max_in_flight
    ?retry_backoff ?max_retries ?forward_timeout sim spec ~flows =
  validate_spec spec;
  let segs = segment_names spec in
  List.iter
    (fun f ->
      if not (List.mem f.src segs) then
        fail "Topology: flow 0x%03X from unknown segment %S" f.id f.src;
      List.iter
        (fun d ->
          if not (List.mem d segs) then
            fail "Topology: flow 0x%03X to unknown segment %S" f.id d)
        f.dsts)
    flows;
  let buses =
    List.map (fun (name, _) -> (name, Bus.create ~corrupt_prob ~bitrate sim))
      spec.segments
  in
  let adj = adjacency spec in
  (* Derive every directed edge's ID whitelist from the flows: an ID
     crosses gateway [g] in direction [d] iff some flow's unique tree path
     from its source segment to a destination segment uses that directed
     edge.  No hand-wired predicates: change the message map or the policy
     and the routing follows. *)
  let whitelists =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (gw, _) -> Hashtbl.replace tbl gw ([], [])) spec.links;
    List.iter
      (fun f ->
        List.iter
          (fun dst ->
            if dst <> f.src then
              let edges, _ = path adj ~src:f.src ~dst in
              List.iter
                (fun (gw, dir) ->
                  let ab, ba = Hashtbl.find tbl gw in
                  match dir with
                  | `A_to_b ->
                      if not (List.mem f.id ab) then
                        Hashtbl.replace tbl gw (f.id :: ab, ba)
                  | `B_to_a ->
                      if not (List.mem f.id ba) then
                        Hashtbl.replace tbl gw (ab, f.id :: ba))
                edges)
          f.dsts)
      flows;
    List.map
      (fun (gw, _) ->
        let ab, ba = Hashtbl.find tbl gw in
        (gw, (List.sort_uniq compare ab, List.sort_uniq compare ba)))
      spec.links
  in
  let predicate ids (frame : Frame.t) =
    match frame.id with
    | Identifier.Standard id -> List.mem id ids
    | Identifier.Extended _ -> false
  in
  let gateways =
    List.map
      (fun (gw, (sa, sb)) ->
        let ab, ba = List.assoc gw whitelists in
        ( gw,
          Gateway.connect ?max_in_flight ?retry_backoff ?max_retries
            ?forward_timeout ~name:gw ~a:(List.assoc sa buses)
            ~b:(List.assoc sb buses) ~forward_a_to_b:(predicate ab)
            ~forward_b_to_a:(predicate ba) () ))
      spec.links
  in
  { sim; spec; flows; buses; gateways; whitelists }

let sim t = t.sim

let spec t = t.spec

let flows t = t.flows

let segments t = segment_names t.spec

let gateway_names t = List.map fst t.spec.links

let bus t seg =
  match List.assoc_opt seg t.buses with
  | Some b -> b
  | None -> fail "Topology.bus: unknown segment %S" seg

let gateway t gw =
  match List.assoc_opt gw t.gateways with
  | Some g -> g
  | None -> fail "Topology.gateway: unknown gateway %S" gw

let link t gw =
  match List.assoc_opt gw t.spec.links with
  | Some l -> l
  | None -> fail "Topology.link: unknown gateway %S" gw

let segment_of t node =
  List.find_map
    (fun (seg, nodes) -> if List.mem node nodes then Some seg else None)
    t.spec.segments

let members t seg =
  match List.assoc_opt seg t.spec.segments with
  | Some ns -> ns
  | None -> fail "Topology.members: unknown segment %S" seg

let crossing_ids t ~gateway:gw dir =
  match List.assoc_opt gw t.whitelists with
  | Some (ab, ba) -> ( match dir with `A_to_b -> ab | `B_to_a -> ba)
  | None -> fail "Topology.crossing_ids: unknown gateway %S" gw

(* Reachability of an ID injected on [src]: follow every directed edge
   whose whitelist carries the ID.  This is the declared routing semantics
   the simulated gateways must implement — the qcheck property in the test
   suite compares it against observed flat-bus delivery. *)
let route t ~src id =
  if not (List.mem src (segments t)) then
    fail "Topology.route: unknown segment %S" src;
  let adj = adjacency t.spec in
  let rec reach visited = function
    | [] -> visited
    | seg :: rest ->
        if List.mem seg visited then reach visited rest
        else
          let next =
            List.filter_map
              (fun (s, gw, dir) ->
                if List.mem id (crossing_ids t ~gateway:gw dir) then Some s
                else None)
              (neighbours adj seg)
          in
          reach (seg :: visited) (next @ rest)
  in
  List.filter (fun s -> List.mem s (reach [] [ src ])) (segments t)

let components t ~without =
  List.iter (fun g -> ignore (link t g)) without;
  let live_links =
    List.filter (fun (g, _) -> not (List.mem g without)) t.spec.links
  in
  let adj = adjacency { t.spec with links = live_links } in
  let rec reach visited = function
    | [] -> visited
    | seg :: rest ->
        if List.mem seg visited then reach visited rest
        else
          let next = List.map (fun (s, _, _) -> s) (neighbours adj seg) in
          reach (seg :: visited) (next @ rest)
  in
  let rec group remaining =
    match remaining with
    | [] -> []
    | seg :: _ ->
        let comp = reach [] [ seg ] in
        let comp = List.filter (fun s -> List.mem s comp) (segments t) in
        comp :: group (List.filter (fun s -> not (List.mem s comp)) remaining)
  in
  group (segments t)

let restrict t ~gateway:gw ~ids =
  let g = gateway t gw in
  let ab, ba =
    match List.assoc_opt gw t.whitelists with
    | Some w -> w
    | None -> assert false
  in
  let keep wl = List.filter (fun id -> List.mem id ids) wl in
  let predicate allowed (frame : Frame.t) =
    match frame.id with
    | Identifier.Standard id -> List.mem id allowed
    | Identifier.Extended _ -> false
  in
  Gateway.set_predicates g
    ~forward_a_to_b:(predicate (keep ab))
    ~forward_b_to_a:(predicate (keep ba))

let restore t ~gateway:gw =
  let g = gateway t gw in
  let ab, ba =
    match List.assoc_opt gw t.whitelists with
    | Some w -> w
    | None -> assert false
  in
  let predicate allowed (frame : Frame.t) =
    match frame.id with
    | Identifier.Standard id -> List.mem id allowed
    | Identifier.Extended _ -> false
  in
  Gateway.set_predicates g ~forward_a_to_b:(predicate ab)
    ~forward_b_to_a:(predicate ba)

let attach_obs ?(prefix = "can.seg") t reg =
  List.iter
    (fun (seg, bus) ->
      (* no links means one segment: a lone bus keeps Bus's own names *)
      if t.spec.links = [] then Bus.attach_obs bus reg
      else Bus.attach_obs ~prefix:(prefix ^ "." ^ seg) bus reg)
    t.buses;
  List.iter (fun (_, gw) -> Gateway.attach_obs gw reg) t.gateways
