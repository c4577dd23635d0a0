module Cbuf = Dssoc_dsp.Cbuf

type var_spec = { bytes : int; is_ptr : bool; ptr_alloc_bytes : int; init : int list }

type slot = { vspec : var_spec; data : Bytes.t }

type t = (string, slot) Hashtbl.t

let block_size spec = if spec.is_ptr then spec.ptr_alloc_bytes else spec.bytes

let create vars =
  let t = Hashtbl.create (List.length vars) in
  List.iter
    (fun (name, vspec) ->
      if Hashtbl.mem t name then invalid_arg (Printf.sprintf "Store.create: duplicate variable %S" name);
      if vspec.bytes < 0 || vspec.ptr_alloc_bytes < 0 then
        invalid_arg (Printf.sprintf "Store.create: negative size for %S" name);
      let size = block_size vspec in
      let data = Bytes.make size '\000' in
      List.iteri
        (fun i v -> if i < size then Bytes.set data i (Char.chr (v land 0xFF)))
        vspec.init;
      Hashtbl.replace t name { vspec; data })
    vars;
  t

let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare

let find t name =
  match Hashtbl.find_opt t name with
  | Some s -> s
  | None -> raise Not_found

let spec t name = (find t name).vspec

let payload_bytes t name = block_size (spec t name)

let get_i32 t name = Int32.to_int (Bytes.get_int32_le (find t name).data 0)
let set_i32 t name v = Bytes.set_int32_le (find t name).data 0 (Int32.of_int v)

let get_f32 t name = Int32.float_of_bits (Bytes.get_int32_le (find t name).data 0)
let set_f32 t name v = Bytes.set_int32_le (find t name).data 0 (Int32.bits_of_float v)

let get_f32_array t name =
  let data = (find t name).data in
  let n = Bytes.length data / 4 in
  Array.init n (fun i -> Int32.float_of_bits (Bytes.get_int32_le data (4 * i)))

let set_f32_array t name a =
  let data = (find t name).data in
  if 4 * Array.length a > Bytes.length data then
    invalid_arg (Printf.sprintf "Store.set_f32_array: %S overflows its block" name);
  Array.iteri (fun i v -> Bytes.set_int32_le data (4 * i) (Int32.bits_of_float v)) a

let get_i32_array t name =
  let data = (find t name).data in
  Array.init (Bytes.length data / 4) (fun i -> Int32.to_int (Bytes.get_int32_le data (4 * i)))

let set_i32_array t name a =
  let data = (find t name).data in
  if 4 * Array.length a > Bytes.length data then
    invalid_arg (Printf.sprintf "Store.set_i32_array: %S overflows its block" name);
  Array.iteri (fun i v -> Bytes.set_int32_le data (4 * i) (Int32.of_int v)) a

let get_cbuf t name =
  let data = (find t name).data in
  let n = Bytes.length data / 8 in
  let buf = Cbuf.create n in
  for i = 0 to n - 1 do
    Cbuf.set buf i
      (Int32.float_of_bits (Bytes.get_int32_le data (8 * i)))
      (Int32.float_of_bits (Bytes.get_int32_le data ((8 * i) + 4)))
  done;
  buf

let set_cbuf t name buf =
  let data = (find t name).data in
  let n = Cbuf.length buf in
  if 8 * n > Bytes.length data then
    invalid_arg (Printf.sprintf "Store.set_cbuf: %S overflows its block" name);
  for i = 0 to n - 1 do
    let re, im = Cbuf.get buf i in
    Bytes.set_int32_le data (8 * i) (Int32.bits_of_float re);
    Bytes.set_int32_le data ((8 * i) + 4) (Int32.bits_of_float im)
  done

let get_cbuf_slice t name ~off ~len =
  let data = (find t name).data in
  if off < 0 || len < 0 || 8 * (off + len) > Bytes.length data then
    invalid_arg (Printf.sprintf "Store.get_cbuf_slice: slice out of range for %S" name);
  let buf = Cbuf.create len in
  for i = 0 to len - 1 do
    let base = 8 * (off + i) in
    Cbuf.set buf i
      (Int32.float_of_bits (Bytes.get_int32_le data base))
      (Int32.float_of_bits (Bytes.get_int32_le data (base + 4)))
  done;
  buf

let set_cbuf_slice t name ~off buf =
  let data = (find t name).data in
  let n = Cbuf.length buf in
  if off < 0 || 8 * (off + n) > Bytes.length data then
    invalid_arg (Printf.sprintf "Store.set_cbuf_slice: slice out of range for %S" name);
  for i = 0 to n - 1 do
    let re, im = Cbuf.get buf i in
    let base = 8 * (off + i) in
    Bytes.set_int32_le data base (Int32.bits_of_float re);
    Bytes.set_int32_le data (base + 4) (Int32.bits_of_float im)
  done

let get_bits t name =
  let data = (find t name).data in
  Array.init (Bytes.length data) (fun i -> Bytes.get data i <> '\000')

let set_bits t name bits =
  let data = (find t name).data in
  if Array.length bits > Bytes.length data then
    invalid_arg (Printf.sprintf "Store.set_bits: %S overflows its block" name);
  Array.iteri (fun i b -> Bytes.set data i (if b then '\001' else '\000')) bits

let get_raw t name = (find t name).data

let copy t =
  let t' = Hashtbl.copy t in
  Hashtbl.filter_map_inplace (fun _ s -> Some { s with data = Bytes.copy s.data }) t';
  t'

let blit_from dst ~src =
  if Hashtbl.length dst <> Hashtbl.length src then
    invalid_arg "Store.blit_from: stores declare different variables";
  Hashtbl.iter
    (fun name (s : slot) ->
      match Hashtbl.find_opt dst name with
      | Some d when Bytes.length d.data = Bytes.length s.data ->
        Bytes.blit s.data 0 d.data 0 (Bytes.length s.data)
      | _ -> invalid_arg (Printf.sprintf "Store.blit_from: variable %S has a different shape" name))
    src
