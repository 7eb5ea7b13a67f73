type t =
  | Link
  | Typed
  | Bookmark
  | Embed
  | Redirect_permanent
  | Redirect_temporary
  | Download
  | Framed_link
  | Form_submit
  | Reload

let to_code = function
  | Link -> 1
  | Typed -> 2
  | Bookmark -> 3
  | Embed -> 4
  | Redirect_permanent -> 5
  | Redirect_temporary -> 6
  | Download -> 7
  | Framed_link -> 8
  | Form_submit -> 9
  | Reload -> 10

let of_code = function
  | 1 -> Link
  | 2 -> Typed
  | 3 -> Bookmark
  | 4 -> Embed
  | 5 -> Redirect_permanent
  | 6 -> Redirect_temporary
  | 7 -> Download
  | 8 -> Framed_link
  | 9 -> Form_submit
  | 10 -> Reload
  | c -> invalid_arg (Printf.sprintf "Transition.of_code: %d" c)

let name = function
  | Link -> "link"
  | Typed -> "typed"
  | Bookmark -> "bookmark"
  | Embed -> "embed"
  | Redirect_permanent -> "redirect-permanent"
  | Redirect_temporary -> "redirect-temporary"
  | Download -> "download"
  | Framed_link -> "framed-link"
  | Form_submit -> "form-submit"
  | Reload -> "reload"

let hidden = function
  | Embed | Redirect_permanent | Redirect_temporary -> true
  | Link | Typed | Bookmark | Download | Framed_link | Form_submit | Reload -> false

let displayed = function
  | Embed | Download -> false
  | Link | Typed | Bookmark | Redirect_permanent | Redirect_temporary | Framed_link
  | Form_submit | Reload -> true

let all =
  [ Link; Typed; Bookmark; Embed; Redirect_permanent; Redirect_temporary; Download; Framed_link; Form_submit; Reload ]
