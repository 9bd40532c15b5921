type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\b' -> Buffer.add_string buf "\\b"
       | '\012' -> Buffer.add_string buf "\\f"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no NaN/Infinity literals; encode them as strings so the
   output always parses (same convention as Obs.Export) *)
let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.9g" f
  else Printf.sprintf "\"%s\"" (Float.to_string f)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Number f -> Buffer.add_string buf (number_to_string f)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
         if i > 0 then Buffer.add_char buf ',';
         write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char buf ',';
         Buffer.add_char buf '"';
         Buffer.add_string buf (escape k);
         Buffer.add_string buf "\":";
         write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---- parsing ---- *)

exception Parse_error of string

let fail_at pos msg =
  raise (Parse_error (Printf.sprintf "%s at byte %d" msg pos))

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = fail_at !pos msg in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let string_raw () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec chars () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> advance (); Buffer.add_char buf '"'; chars ()
         | Some '\\' -> advance (); Buffer.add_char buf '\\'; chars ()
         | Some '/' -> advance (); Buffer.add_char buf '/'; chars ()
         | Some 'b' -> advance (); Buffer.add_char buf '\b'; chars ()
         | Some 'f' -> advance (); Buffer.add_char buf '\012'; chars ()
         | Some 'n' -> advance (); Buffer.add_char buf '\n'; chars ()
         | Some 'r' -> advance (); Buffer.add_char buf '\r'; chars ()
         | Some 't' -> advance (); Buffer.add_char buf '\t'; chars ()
         | Some 'u' ->
           advance ();
           let code = ref 0 in
           for _ = 1 to 4 do
             (match peek () with
              | Some ('0' .. '9' as c) ->
                code := (!code * 16) + (Char.code c - Char.code '0')
              | Some ('a' .. 'f' as c) ->
                code := (!code * 16) + (Char.code c - Char.code 'a' + 10)
              | Some ('A' .. 'F' as c) ->
                code := (!code * 16) + (Char.code c - Char.code 'A' + 10)
              | _ -> fail "bad \\u escape");
             advance ()
           done;
           (* keep it simple: BMP code points as UTF-8 *)
           let c = !code in
           if c < 0x80 then Buffer.add_char buf (Char.chr c)
           else if c < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
           end;
           chars ()
         | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        chars ()
    in
    chars ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let seen = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          seen := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !seen then fail "digit expected"
    in
    digits ();
    (match peek () with
     | Some '.' ->
       advance ();
       digits ()
     | _ -> ());
    (match peek () with
     | Some ('e' | 'E') ->
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Number f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> String (string_raw ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "value expected"
  and obj () =
    expect '{';
    skip_ws ();
    match peek () with
    | Some '}' ->
      advance ();
      Obj []
    | _ ->
      let rec members acc =
        skip_ws ();
        let k = string_raw () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ((k, v) :: acc)
        | Some '}' ->
          advance ();
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      members []
  and arr () =
    expect '[';
    skip_ws ();
    match peek () with
    | Some ']' ->
      advance ();
      List []
    | _ ->
      let rec elements acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          elements (v :: acc)
        | Some ']' ->
          advance ();
          List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      elements []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

(* ---- accessors (lenient: missing/mistyped fields become None) ---- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_float_opt = function
  | Number f -> Some f
  | String s -> float_of_string_opt s (* "nan"/"inf" encoded as strings *)
  | _ -> None

let to_int_opt = function Number f -> Some (int_of_float f) | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_list_opt = function List xs -> Some xs | _ -> None


let get_float ?(default = 0.) j name =
  Option.value ~default (Option.bind (member name j) to_float_opt)

let get_int ?(default = 0) j name =
  Option.value ~default (Option.bind (member name j) to_int_opt)

let get_string ?(default = "") j name =
  Option.value ~default (Option.bind (member name j) to_string_opt)

let get_list j name =
  Option.value ~default:[] (Option.bind (member name j) to_list_opt)
