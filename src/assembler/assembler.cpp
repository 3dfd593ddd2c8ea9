#include "assembler/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <vector>

#include "isa/encoding.hpp"

namespace emask::assembler {
namespace {

using isa::Instruction;
using isa::Opcode;
using isa::Reg;

std::string trim(std::string s) {
  const auto not_space = [](unsigned char c) { return !std::isspace(c); };
  s.erase(s.begin(), std::find_if(s.begin(), s.end(), not_space));
  s.erase(std::find_if(s.rbegin(), s.rend(), not_space).base(), s.end());
  return s;
}

/// A raw source statement after label/comment stripping.
struct Statement {
  int line = 0;
  std::string head;                // mnemonic or directive (lowercased)
  std::vector<std::string> args;   // comma-separated operands, trimmed
};

/// Mnemonic lookup result: base opcode + secure flag (or a pseudo).
struct Mnemonic {
  enum class Kind { kReal, kNop, kFork, kMove, kLi, kLa, kB } kind = Kind::kReal;
  Opcode op = Opcode::kHalt;
  bool secure = false;
};

std::optional<Mnemonic> resolve_mnemonic(const std::string& m, int line) {
  if (m == "nop") return Mnemonic{Mnemonic::Kind::kNop, Opcode::kSll, false};
  // Fork marker: assembles to a retired no-op and records its instruction
  // index in Program::fork_point (snapshot/fork trace capture).
  if (m == "fork") return Mnemonic{Mnemonic::Kind::kFork, Opcode::kSll, false};
  if (m == "move") return Mnemonic{Mnemonic::Kind::kMove, Opcode::kAddu, false};
  if (m == "smove") return Mnemonic{Mnemonic::Kind::kMove, Opcode::kAddu, true};
  if (m == "li") return Mnemonic{Mnemonic::Kind::kLi, Opcode::kAddiu, false};
  if (m == "la") return Mnemonic{Mnemonic::Kind::kLa, Opcode::kLui, false};
  if (m == "b") return Mnemonic{Mnemonic::Kind::kB, Opcode::kBeq, false};
  if (auto op = isa::opcode_from_mnemonic(m)) {
    return Mnemonic{Mnemonic::Kind::kReal, *op, false};
  }
  // "s"-prefixed secure spelling (paper Fig. 4: slw, ssw, ...).
  if (m.size() > 1 && m[0] == 's') {
    if (auto op = isa::opcode_from_mnemonic(m.substr(1))) {
      if (!isa::info(*op).securable) {
        throw AsmError(line, "'" + m + "': '" + m.substr(1) +
                                 "' has no secure version");
      }
      return Mnemonic{Mnemonic::Kind::kReal, *op, true};
    }
  }
  return std::nullopt;
}

std::int64_t parse_number(const std::string& text, int line) {
  if (text.empty()) throw AsmError(line, "expected a number");
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 0);
  if (end != text.c_str() + text.size()) {
    throw AsmError(line, "malformed number '" + text + "'");
  }
  return v;
}

Reg parse_reg_or_throw(const std::string& text, int line) {
  if (auto r = isa::parse_reg(text)) return *r;
  throw AsmError(line, "malformed register '" + text + "'");
}

bool is_label_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

/// The assembler proper: collects statements, lays out data, sizes/expands
/// text in two passes.
class Assembler {
 public:
  Program run(const std::string& source) {
    collect(source);
    layout_data();
    size_text();
    emit_text();
    resolve_secrets();
    return std::move(prog_);
  }

 private:
  // ---- Pass 0: statement collection --------------------------------------

  void collect(const std::string& source) {
    std::istringstream in(source);
    std::string raw;
    int line_no = 0;
    bool in_data = false;
    while (std::getline(in, raw)) {
      ++line_no;
      // Strip comments.
      for (const char marker : {'#', ';'}) {
        const auto pos = raw.find(marker);
        if (pos != std::string::npos) raw.resize(pos);
      }
      std::string rest = trim(raw);
      // Peel leading labels ("name:").
      while (!rest.empty() && is_label_start(rest[0])) {
        const auto colon = rest.find(':');
        if (colon == std::string::npos) break;
        const std::string candidate = trim(rest.substr(0, colon));
        if (candidate.find(' ') != std::string::npos ||
            candidate.find('\t') != std::string::npos) {
          break;  // not a label, e.g. a directive with args
        }
        define_label(candidate, in_data, line_no);
        rest = trim(rest.substr(colon + 1));
      }
      if (rest.empty()) continue;

      Statement st;
      st.line = line_no;
      const auto ws = rest.find_first_of(" \t");
      st.head = rest.substr(0, ws);
      std::transform(st.head.begin(), st.head.end(), st.head.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (ws != std::string::npos) {
        std::string args = trim(rest.substr(ws));
        std::string cur;
        for (char c : args) {
          if (c == ',') {
            st.args.push_back(trim(cur));
            cur.clear();
          } else {
            cur += c;
          }
        }
        if (!trim(cur).empty()) st.args.push_back(trim(cur));
      }

      if (st.head == ".text") {
        in_data = false;
      } else if (st.head == ".data") {
        in_data = true;
      } else if (in_data) {
        data_stmts_.push_back(st);
      } else {
        text_stmts_.push_back(st);
      }
    }
  }

  void define_label(const std::string& name, bool in_data, int line) {
    if (in_data) {
      if (data_label_lines_.count(name)) {
        throw AsmError(line, "duplicate data label '" + name + "'");
      }
      data_label_lines_[name] = line;
      data_stmts_.push_back(Statement{line, ".label", {name}});
    } else {
      if (prog_.text_labels.count(name)) {
        throw AsmError(line, "duplicate text label '" + name + "'");
      }
      pending_text_labels_.push_back({name, line});
      text_stmts_.push_back(Statement{line, ".label", {name}});
    }
  }

  // ---- Data layout ---------------------------------------------------------

  void layout_data() {
    std::vector<std::pair<std::string, std::uint32_t>> label_offsets;
    std::vector<std::uint8_t>& img = prog_.data;
    for (const Statement& st : data_stmts_) {
      if (st.head == ".label") {
        label_offsets.emplace_back(st.args[0],
                                   static_cast<std::uint32_t>(img.size()));
      } else if (st.head == ".word") {
        if (st.args.empty()) throw AsmError(st.line, ".word needs values");
        for (const std::string& a : st.args) {
          const auto v =
              static_cast<std::uint32_t>(parse_number(a, st.line) & 0xFFFFFFFF);
          img.push_back(static_cast<std::uint8_t>(v & 0xFF));
          img.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
          img.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
          img.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
        }
      } else if (st.head == ".space") {
        if (st.args.size() != 1) throw AsmError(st.line, ".space needs a size");
        const std::int64_t n = parse_number(st.args[0], st.line);
        if (n < 0 || n > (1 << 24)) {
          throw AsmError(st.line, ".space size out of range");
        }
        img.insert(img.end(), static_cast<std::size_t>(n), 0u);
      } else if (st.head == ".align") {
        if (st.args.size() != 1) throw AsmError(st.line, ".align needs a power");
        const std::int64_t p = parse_number(st.args[0], st.line);
        if (p < 0 || p > 12) throw AsmError(st.line, ".align power out of range");
        const std::size_t unit = std::size_t{1} << p;
        while (img.size() % unit != 0) img.push_back(0u);
      } else if (st.head == ".secret") {
        if (st.args.size() != 1) throw AsmError(st.line, ".secret needs a name");
        secret_requests_.emplace_back(st.args[0], st.line);
      } else if (st.head == ".declassified") {
        if (st.args.size() != 1) {
          throw AsmError(st.line, ".declassified needs a name");
        }
        declassified_requests_.emplace_back(st.args[0], st.line);
      } else {
        throw AsmError(st.line, "unknown data directive '" + st.head + "'");
      }
    }
    // Symbol extents: from each label to the next label (or end of image).
    for (std::size_t i = 0; i < label_offsets.size(); ++i) {
      const std::uint32_t begin = label_offsets[i].second;
      const std::uint32_t end = (i + 1 < label_offsets.size())
                                    ? label_offsets[i + 1].second
                                    : static_cast<std::uint32_t>(img.size());
      prog_.symbols.push_back(DataSymbol{label_offsets[i].first,
                                         kDataBase + begin, end - begin,
                                         false});
    }
  }

  void resolve_secrets() {
    const auto mark = [&](const std::string& name, int line,
                          const char* directive, auto&& set) {
      for (DataSymbol& s : prog_.symbols) {
        if (s.name == name) {
          set(s);
          return;
        }
      }
      throw AsmError(line, std::string(directive) + ": unknown data symbol '" +
                               name + "'");
    };
    for (const auto& [name, line] : secret_requests_) {
      mark(name, line, ".secret", [](DataSymbol& s) { s.secret = true; });
    }
    for (const auto& [name, line] : declassified_requests_) {
      mark(name, line, ".declassified",
           [](DataSymbol& s) { s.declassified = true; });
    }
  }

  // ---- Text sizing and emission ---------------------------------------------

  /// Number of machine instructions a statement expands to.
  std::uint32_t expansion_size(const Statement& st) const {
    const auto mn = resolve_mnemonic(st.head, st.line);
    if (!mn) throw AsmError(st.line, "unknown mnemonic '" + st.head + "'");
    switch (mn->kind) {
      case Mnemonic::Kind::kLi: {
        if (st.args.size() != 2) throw AsmError(st.line, "li needs 2 operands");
        const std::int64_t v = parse_number(st.args[1], st.line);
        return (v >= -32768 && v <= 65535) ? 1 : 2;
      }
      case Mnemonic::Kind::kLa:
        return 2;
      default:
        return 1;
    }
  }

  void size_text() {
    std::uint32_t index = 0;
    for (const Statement& st : text_stmts_) {
      if (st.head == ".label") {
        const auto [it, inserted] =
            prog_.text_labels.emplace(st.args[0], index);
        if (!inserted) {
          throw AsmError(st.line, "duplicate text label '" + st.args[0] + "'");
        }
      } else if (st.head == ".globl" || st.head == ".ent" ||
                 st.head == ".end") {
        // Accepted and ignored for compatibility with compiler output.
      } else {
        index += expansion_size(st);
      }
    }
  }

  /// Emits one instruction.  Every instruction is checked for
  /// encodability here, pseudo-op expansions included, so a layout error
  /// (a branch offset out of range, say) carries its source line.
  void push(const Instruction& inst, int line) {
    try {
      (void)isa::encode(inst);
    } catch (const std::invalid_argument& e) {
      throw AsmError(line, e.what());
    }
    prog_.text.push_back(inst);
    prog_.text_locs.push_back(SourceLoc{line});
  }

  std::uint32_t text_label_or_throw(const std::string& name, int line) const {
    const auto it = prog_.text_labels.find(name);
    if (it == prog_.text_labels.end()) {
      throw AsmError(line, "undefined label '" + name + "'");
    }
    return it->second;
  }

  /// Branch/jump target: label name or numeric literal.
  std::int32_t branch_target(const std::string& arg, int line,
                             std::uint32_t next_index) const {
    if (!arg.empty() && (is_label_start(arg[0]))) {
      const std::uint32_t target = text_label_or_throw(arg, line);
      return static_cast<std::int32_t>(target) -
             static_cast<std::int32_t>(next_index);
    }
    return static_cast<std::int32_t>(parse_number(arg, line));
  }

  std::uint32_t data_address_or_throw(const std::string& name,
                                      int line) const {
    const DataSymbol* s = prog_.find_symbol(name);
    if (s == nullptr) {
      throw AsmError(line, "undefined data symbol '" + name + "'");
    }
    return s->address;
  }

  /// Parses "offset(reg)" or "(reg)" or "symbol" load/store address operand.
  struct MemOperand {
    Reg base = 0;
    std::int32_t offset = 0;
  };
  MemOperand parse_mem(const std::string& arg, int line) const {
    const auto open = arg.find('(');
    if (open == std::string::npos) {
      throw AsmError(line, "expected 'offset(reg)' operand, got '" + arg + "'");
    }
    const auto close = arg.find(')', open);
    if (close == std::string::npos) {
      throw AsmError(line, "missing ')' in '" + arg + "'");
    }
    MemOperand m;
    m.base = parse_reg_or_throw(trim(arg.substr(open + 1, close - open - 1)),
                                line);
    const std::string off = trim(arg.substr(0, open));
    if (!off.empty()) {
      m.offset = static_cast<std::int32_t>(parse_number(off, line));
    }
    return m;
  }

  void require_args(const Statement& st, std::size_t n) const {
    if (st.args.size() != n) {
      throw AsmError(st.line, "'" + st.head + "' expects " + std::to_string(n) +
                                  " operand(s), got " +
                                  std::to_string(st.args.size()));
    }
  }

  void emit_text() {
    for (const Statement& st : text_stmts_) {
      if (st.head == ".label" || st.head == ".globl" || st.head == ".ent" ||
          st.head == ".end") {
        continue;
      }
      const auto mn = resolve_mnemonic(st.head, st.line);
      const auto next_index = static_cast<std::uint32_t>(prog_.text.size()) + 1;
      switch (mn->kind) {
        case Mnemonic::Kind::kNop:
          push(isa::make_nop(), st.line);
          continue;
        case Mnemonic::Kind::kFork:
          require_args(st, 0);
          if (prog_.fork_point) {
            throw AsmError(st.line, "duplicate fork marker (the snapshot "
                                    "point must be unique)");
          }
          prog_.fork_point = static_cast<std::uint32_t>(prog_.text.size());
          push(isa::make_nop(), st.line);
          continue;
        case Mnemonic::Kind::kMove: {
          require_args(st, 2);
          const Reg rd = parse_reg_or_throw(st.args[0], st.line);
          const Reg rs = parse_reg_or_throw(st.args[1], st.line);
          push(isa::make_rtype(Opcode::kAddu, rd, rs, isa::kZero, mn->secure),
               st.line);
          continue;
        }
        case Mnemonic::Kind::kLi: {
          require_args(st, 2);
          const Reg rt = parse_reg_or_throw(st.args[0], st.line);
          const std::int64_t v = parse_number(st.args[1], st.line);
          if (v >= -32768 && v <= 32767) {
            push(isa::make_itype(Opcode::kAddiu, rt, isa::kZero,
                                 static_cast<std::int32_t>(v)),
                 st.line);
          } else if (v >= 0 && v <= 65535) {
            push(isa::make_itype(Opcode::kOri, rt, isa::kZero,
                                 static_cast<std::int32_t>(v)),
                 st.line);
          } else {
            const auto u = static_cast<std::uint32_t>(v & 0xFFFFFFFF);
            push(isa::make_itype(Opcode::kLui, rt, isa::kZero,
                                 static_cast<std::int32_t>(u >> 16)),
                 st.line);
            push(isa::make_itype(Opcode::kOri, rt, rt,
                                 static_cast<std::int32_t>(u & 0xFFFF)),
                 st.line);
          }
          continue;
        }
        case Mnemonic::Kind::kLa: {
          require_args(st, 2);
          const Reg rt = parse_reg_or_throw(st.args[0], st.line);
          const std::uint32_t addr = data_address_or_throw(st.args[1], st.line);
          push(isa::make_itype(Opcode::kLui, rt, isa::kZero,
                               static_cast<std::int32_t>(addr >> 16)),
               st.line);
          push(isa::make_itype(Opcode::kOri, rt, rt,
                               static_cast<std::int32_t>(addr & 0xFFFF)),
               st.line);
          continue;
        }
        case Mnemonic::Kind::kB: {
          require_args(st, 1);
          push(isa::make_branch(Opcode::kBeq, isa::kZero, isa::kZero,
                                branch_target(st.args[0], st.line, next_index)),
               st.line);
          continue;
        }
        case Mnemonic::Kind::kReal:
          break;
      }

      const Opcode op = mn->op;
      Instruction inst;
      switch (isa::info(op).format) {
        case isa::Format::kRegister: {
          require_args(st, 3);
          const Reg rd = parse_reg_or_throw(st.args[0], st.line);
          const Reg second = parse_reg_or_throw(st.args[1], st.line);
          const Reg third = parse_reg_or_throw(st.args[2], st.line);
          // Variable shifts use MIPS operand order "rd, rt, rs": the second
          // operand is the value, the third the shift amount.
          const bool variable_shift = op == Opcode::kSllv ||
                                      op == Opcode::kSrlv ||
                                      op == Opcode::kSrav;
          inst = variable_shift
                     ? isa::make_rtype(op, rd, third, second, mn->secure)
                     : isa::make_rtype(op, rd, second, third, mn->secure);
          break;
        }
        case isa::Format::kShiftImm: {
          require_args(st, 3);
          inst = isa::make_shift(
              op, parse_reg_or_throw(st.args[0], st.line),
              parse_reg_or_throw(st.args[1], st.line),
              static_cast<int>(parse_number(st.args[2], st.line)), mn->secure);
          break;
        }
        case isa::Format::kImmediate: {
          if (op == Opcode::kLui) {
            require_args(st, 2);
            inst = isa::make_itype(
                op, parse_reg_or_throw(st.args[0], st.line), isa::kZero,
                static_cast<std::int32_t>(parse_number(st.args[1], st.line)),
                mn->secure);
          } else {
            require_args(st, 3);
            inst = isa::make_itype(
                op, parse_reg_or_throw(st.args[0], st.line),
                parse_reg_or_throw(st.args[1], st.line),
                static_cast<std::int32_t>(parse_number(st.args[2], st.line)),
                mn->secure);
          }
          break;
        }
        case isa::Format::kLoadStore: {
          require_args(st, 2);
          const Reg rt = parse_reg_or_throw(st.args[0], st.line);
          const MemOperand m = parse_mem(st.args[1], st.line);
          inst = isa::make_loadstore(op, rt, m.offset, m.base, mn->secure);
          break;
        }
        case isa::Format::kBranch: {
          if (op == Opcode::kBeq || op == Opcode::kBne) {
            require_args(st, 3);
            inst = isa::make_branch(
                op, parse_reg_or_throw(st.args[0], st.line),
                parse_reg_or_throw(st.args[1], st.line),
                branch_target(st.args[2], st.line, next_index));
          } else {
            require_args(st, 2);
            inst = isa::make_branch(
                op, parse_reg_or_throw(st.args[0], st.line), isa::kZero,
                branch_target(st.args[1], st.line, next_index));
          }
          break;
        }
        case isa::Format::kJump: {
          require_args(st, 1);
          std::int32_t target;
          if (!st.args[0].empty() && is_label_start(st.args[0][0])) {
            target = static_cast<std::int32_t>(
                text_label_or_throw(st.args[0], st.line));
          } else {
            target =
                static_cast<std::int32_t>(parse_number(st.args[0], st.line));
          }
          inst = isa::make_jump(op, target);
          break;
        }
        case isa::Format::kJumpReg: {
          if (op == Opcode::kJalr && st.args.size() == 2) {
            inst = Instruction{op, parse_reg_or_throw(st.args[0], st.line),
                               parse_reg_or_throw(st.args[1], st.line), 0, 0,
                               false};
          } else {
            require_args(st, 1);
            const Reg link = (op == Opcode::kJalr) ? isa::kRa : isa::kZero;
            inst = Instruction{op, link,
                               parse_reg_or_throw(st.args[0], st.line), 0, 0,
                               false};
          }
          break;
        }
        case isa::Format::kNullary: {
          require_args(st, 0);
          inst = Instruction{op, 0, 0, 0, 0, false};
          break;
        }
      }
      push(inst, st.line);
    }
  }

  Program prog_;
  std::vector<Statement> data_stmts_;
  std::vector<Statement> text_stmts_;
  std::map<std::string, int> data_label_lines_;
  std::vector<std::pair<std::string, int>> pending_text_labels_;
  std::vector<std::pair<std::string, int>> secret_requests_;
  std::vector<std::pair<std::string, int>> declassified_requests_;
};

}  // namespace

Program assemble(const std::string& source) { return Assembler{}.run(source); }

}  // namespace emask::assembler
