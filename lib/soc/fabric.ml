type topology = Crossbar | Mesh of int * int

type bus = {
  bw_mb_s : float;
  fifo_depth : int;
  hop_ns : int;
  topology : topology;
}

type t = Ideal | Bus of bus

let default_bus = { bw_mb_s = 2000.0; fifo_depth = 16; hop_ns = 0; topology = Crossbar }

let hops topology ~pe_index =
  match topology with
  | Crossbar -> 1
  | Mesh (w, h) ->
    (* PEs wrap around the mesh slots; DDR sits at (0,0) and the
       ingress hop onto the fabric is always paid. *)
    let slot = pe_index mod (w * h) in
    (slot mod w) + (slot / w) + 1

let demand_ns b ~bytes =
  if bytes <= 0 then 0
  else begin
    (* 1 MB/s = 1 byte/us, same unit convention as Dma. *)
    let ns = Float.round (float_of_int bytes /. b.bw_mb_s *. 1e3) in
    if Float.is_nan ns || ns >= float_of_int max_int then
      invalid_arg "Fabric.demand_ns: duration overflows"
    else int_of_float ns
  end

let fixed_ns b ~pe_index ~chunks ~chunk_lat_ns =
  let overflow () = invalid_arg "Fabric.fixed_ns: duration overflows" in
  let hops = hops b.topology ~pe_index in
  if b.hop_ns > max_int / hops then overflow ();
  let per_chunk = hops * b.hop_ns in
  if chunk_lat_ns > max_int - per_chunk then overflow ();
  let per_chunk = per_chunk + chunk_lat_ns in
  if chunks > 0 && per_chunk > max_int / chunks then overflow ();
  chunks * per_chunk

let fingerprint = function
  | Ideal -> "ideal"
  | Bus b ->
    let topo =
      match b.topology with
      | Crossbar -> ""
      | Mesh (w, h) -> Printf.sprintf ",hops=mesh%dx%d" w h
    in
    let hop = if b.hop_ns > 0 then Printf.sprintf ",hop=%dns" b.hop_ns else "" in
    Printf.sprintf "bus:bw=%gMB/s,fifo=%d%s%s" b.bw_mb_s b.fifo_depth hop topo

let pp fmt t = Format.pp_print_string fmt (fingerprint t)

let of_spec spec =
  let ( let* ) = Result.bind in
  let spec = String.trim spec in
  if spec = "" || String.lowercase_ascii spec = "ideal" then Ok Ideal
  else
    let lower = String.lowercase_ascii spec in
    if not (String.length lower >= 4 && String.sub lower 0 4 = "bus:") then
      Error (Printf.sprintf "unknown fabric %S (expected \"ideal\" or \"bus:...\")" spec)
    else begin
      let body = String.sub spec 4 (String.length spec - 4) in
      let parts =
        String.split_on_char ',' body |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let parse_kv part =
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "fabric: expected key=value, got %S" part)
        | Some i ->
          Ok
            ( String.lowercase_ascii (String.sub part 0 i),
              String.sub part (i + 1) (String.length part - i - 1) )
      in
      let strip_suffix s suf =
        let ls = String.length s and lf = String.length suf in
        if ls >= lf && String.lowercase_ascii (String.sub s (ls - lf) lf) = suf then
          Some (String.sub s 0 (ls - lf))
        else None
      in
      let parse_bw v =
        let v = String.trim v in
        let num, scale =
          match strip_suffix v "gb/s" with
          | Some n -> (n, 1000.0)
          | None -> (
            match strip_suffix v "mb/s" with Some n -> (n, 1.0) | None -> (v, 1.0))
        in
        match float_of_string_opt (String.trim num) with
        | Some f when f > 0.0 -> Ok (f *. scale)
        | _ -> Error (Printf.sprintf "fabric: bad bandwidth %S (want e.g. 2000MB/s)" v)
      in
      let parse_hop v =
        let v = String.trim v in
        let num = match strip_suffix v "ns" with Some n -> n | None -> v in
        match int_of_string_opt (String.trim num) with
        | Some n when n >= 0 -> Ok n
        | _ -> Error (Printf.sprintf "fabric: bad hop latency %S (want e.g. 50ns)" v)
      in
      let parse_topology v =
        let v = String.lowercase_ascii (String.trim v) in
        if v = "crossbar" then Ok Crossbar
        else if String.length v > 4 && String.sub v 0 4 = "mesh" then begin
          let dims = String.sub v 4 (String.length v - 4) in
          match String.split_on_char 'x' dims with
          | [ w; h ] -> (
            match (int_of_string_opt w, int_of_string_opt h) with
            | Some w, Some h when w >= 1 && h >= 1 -> Ok (Mesh (w, h))
            | _ -> Error (Printf.sprintf "fabric: bad mesh dimensions %S" dims))
          | _ -> Error (Printf.sprintf "fabric: bad mesh dimensions %S" dims)
        end
        else Error (Printf.sprintf "fabric: unknown topology %S (crossbar | meshWxH)" v)
      in
      let* b =
        List.fold_left
          (fun acc part ->
            let* b = acc in
            let* k, v = parse_kv part in
            match k with
            | "bw" ->
              let* bw_mb_s = parse_bw v in
              Ok { b with bw_mb_s }
            | "fifo" -> (
              match int_of_string_opt (String.trim v) with
              | Some n when n >= 1 -> Ok { b with fifo_depth = n }
              | _ -> Error (Printf.sprintf "fabric: bad fifo depth %S (want >= 1)" v))
            | "hop" ->
              let* hop_ns = parse_hop v in
              Ok { b with hop_ns }
            | "hops" ->
              let* topology = parse_topology v in
              Ok { b with topology }
            | _ -> Error (Printf.sprintf "fabric: unknown key %S" k))
          (Ok default_bus) parts
      in
      Ok (Bus b)
    end
