module Node = Secpol_can.Node
module Frame = Secpol_can.Frame
module Identifier = Secpol_can.Identifier
module Acceptance = Secpol_can.Acceptance
module Engine = Secpol_sim.Engine

let pad payload dlc =
  let len = String.length payload in
  if len = dlc then payload
  else if len > dlc then String.sub payload 0 dlc
  else payload ^ String.make (dlc - len) '\000'

let frame_of (m : Messages.t) payload =
  Frame.data (Identifier.standard m.id) (pad payload m.dlc)

let command_frame m cmd = frame_of m (String.make 1 cmd)

let command (frame : Frame.t) =
  if String.length frame.payload > 0 then Some frame.payload.[0] else None

let send node m payload = Node.send node (frame_of m payload)

let send_command node m cmd = Node.send node (command_frame m cmd)

let consumer_filters name =
  List.map
    (fun (m : Messages.t) -> Acceptance.exact (Identifier.standard m.id))
    (Messages.consumed_by name)

let software_filters = consumer_filters

let make_node ?(software_filters = true) bus ~name =
  let filters = if software_filters then consumer_filters name else [] in
  Node.create ~filters ~name bus

let start_periodic sim node (m : Messages.t) ~payload ~enabled =
  match m.period with
  | None -> ()
  | Some period ->
      Engine.every sim ~period (fun _sim ->
          if enabled () then ignore (send node m (payload ())))

let node_tag node =
  let name = Node.name node in
  match
    List.find_index (fun n -> n = name) Names.nodes
  with
  | Some i -> Char.chr (i + 1)
  | None -> '\000'

let diag_responder node (state : State.t) =
  ( Messages.diag_request,
    fun ~sender:_ _frame ->
      if state.State.mode = Modes.Remote_diagnostic then
        ignore
          (send node
             (Messages.find_exn Messages.diag_response)
             (String.make 1 (node_tag node))) )

(* the first handler registered for [id]; [List.assoc_opt] would compare
   the keys with the polymorphic [compare] *)
let rec handle handlers id ~sender frame =
  match handlers with
  | [] -> ()
  | (id', handler) :: rest ->
      if Int.equal id id' then handler ~sender frame
      else handle rest id ~sender frame

let dispatch handlers _node ~sender (frame : Frame.t) =
  match frame.id with
  | Identifier.Standard id -> handle handlers id ~sender frame
  | Identifier.Extended _ -> ()
