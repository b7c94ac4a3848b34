type bundle = {
  name : string;
  version : int;
  source : string;
  checksum : string;
  signature : string option;
  created_at : float;
}

let checksum_of ~name ~version ~source =
  Digest.to_hex (Digest.string (Printf.sprintf "%s\x00%d\x00%s" name version source))

let bundle ?(at = 0.0) policy =
  let source = Printer.to_string policy in
  let name = policy.Ast.name and version = policy.Ast.version in
  {
    name;
    version;
    source;
    checksum = checksum_of ~name ~version ~source;
    signature = None;
    created_at = at;
  }

let bundle_of_source ?(at = 0.0) source =
  match Parser.parse source with
  | Error e -> Error e
  | Ok ast -> (
      match Compile.compile ast with
      | Error issues ->
          let msgs =
            List.filter_map
              (fun (i : Compile.issue) ->
                if i.severity = `Error then Some i.message else None)
              issues
          in
          Error (String.concat "; " msgs)
      | Ok _ ->
          let name = ast.Ast.name and version = ast.Ast.version in
          Ok
            {
              name;
              version;
              source;
              checksum = checksum_of ~name ~version ~source;
              signature = None;
              created_at = at;
            })

let verify b = b.checksum = checksum_of ~name:b.name ~version:b.version ~source:b.source

let tampered b ~payload = { b with source = payload }

(* HMAC over the checksum: H((K xor opad) || H((K xor ipad) || m)) with a
   64-byte block, per RFC 2104 (the hash is the stdlib digest; the point is
   the keyed construction, not the primitive's strength). *)
let hmac ~key message =
  let block = 64 in
  let key =
    if String.length key > block then Digest.string key else key
  in
  let key = key ^ String.make (block - String.length key) '\000' in
  let xor_with pad =
    String.init block (fun i -> Char.chr (Char.code key.[i] lxor pad))
  in
  Digest.to_hex
    (Digest.string (xor_with 0x5c ^ Digest.string (xor_with 0x36 ^ message)))

let sign ~key b = { b with signature = Some (hmac ~key b.checksum) }

let verify_signed ~key b =
  verify b
  &&
  match b.signature with
  | Some s -> s = hmac ~key b.checksum
  | None -> false

type store = (string, bundle list) Hashtbl.t
(* newest first *)

let create () : store = Hashtbl.create 8

let current store name =
  match Hashtbl.find_opt store name with
  | Some (b :: _) -> Some b
  | Some [] | None -> None

let install store b =
  if not (verify b) then
    Error (Printf.sprintf "bundle %s v%d failed integrity check" b.name b.version)
  else
    match Compile.of_source b.source with
    | Error e -> Error (Printf.sprintf "bundle %s v%d does not compile: %s" b.name b.version e)
    | Ok _ -> (
        match current store b.name with
        | Some cur when b.version <= cur.version ->
            Error
              (Printf.sprintf
                 "bundle %s v%d is not newer than installed v%d (downgrade refused)"
                 b.name b.version cur.version)
        | Some _ | None ->
            let history = Option.value ~default:[] (Hashtbl.find_opt store b.name) in
            Hashtbl.replace store b.name (b :: history);
            Ok ())

let install_signed store ~key b =
  if not (verify_signed ~key b) then
    Error
      (Printf.sprintf "bundle %s v%d failed the authenticity check" b.name
         b.version)
  else install store b

let current_db store name =
  match current store name with
  | None -> None
  | Some b -> ( match Compile.of_source b.source with Ok db -> Some db | Error _ -> None)

let history store name =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt store name))

let names store =
  Hashtbl.fold (fun k _ acc -> k :: acc) store [] |> List.sort_uniq String.compare
