#include "io/preview_renderer.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace egp {
namespace {

std::string Truncate(std::string_view text, size_t width) {
  if (text.size() <= width) return std::string(text);
  if (width <= 3) return std::string(text.substr(0, width));
  return std::string(text.substr(0, width - 3)) + "...";
}

std::string CellText(const EntityGraph& graph, const MaterializedCell& cell,
                     const RenderOptions& options) {
  if (cell.values.empty()) return "-";
  std::string text;
  const size_t shown = std::min(cell.values.size(),
                                options.max_values_per_cell);
  const bool braces = cell.values.size() > 1;
  if (braces) text += "{";
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) text += ", ";
    text += graph.EntityName(cell.values[i]);
  }
  if (shown < cell.values.size()) text += ", ...";
  if (braces) text += "}";
  return Truncate(text, options.max_cell_width);
}

std::string ColumnHeader(const MaterializedColumn& column,
                         const RenderOptions& options) {
  std::string header = column.name;
  if (options.show_direction && column.direction == Direction::kIncoming) {
    header += " <-";
  }
  return header;
}

}  // namespace

std::string RenderTable(const EntityGraph& graph,
                        const MaterializedTable& table,
                        const RenderOptions& options) {
  const size_t num_columns = table.columns.size() + 1;
  std::vector<std::vector<std::string>> grid;

  std::vector<std::string> header(num_columns);
  header[0] = table.key_name;  // key attribute, underlined below
  for (size_t c = 0; c < table.columns.size(); ++c) {
    header[c + 1] = ColumnHeader(table.columns[c], options);
  }
  grid.push_back(header);

  for (const MaterializedRow& row : table.rows) {
    std::vector<std::string> cells(num_columns);
    cells[0] = Truncate(graph.EntityName(row.key), options.max_cell_width);
    for (size_t c = 0; c < row.cells.size(); ++c) {
      cells[c + 1] = CellText(graph, row.cells[c], options);
    }
    grid.push_back(std::move(cells));
  }

  std::ostringstream out;
  if (options.format == RenderOptions::Format::kMarkdown) {
    out << "| **" << grid[0][0] << "** |";
    for (size_t c = 1; c < num_columns; ++c) out << " " << grid[0][c] << " |";
    out << "\n|";
    for (size_t c = 0; c < num_columns; ++c) out << "---|";
    out << "\n";
    for (size_t r = 1; r < grid.size(); ++r) {
      out << "|";
      for (size_t c = 0; c < num_columns; ++c) {
        out << " " << grid[r][c] << " |";
      }
      out << "\n";
    }
    out << "\n";
    return out.str();
  }

  std::vector<size_t> widths(num_columns, 0);
  for (const auto& row : grid) {
    for (size_t c = 0; c < num_columns; ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto rule = [&](char fill) {
    out << "+";
    for (size_t c = 0; c < num_columns; ++c) {
      out << std::string(widths[c] + 2, fill) << "+";
    }
    out << "\n";
  };
  rule('-');
  // Header with the key attribute underlined on a second line.
  out << "|";
  for (size_t c = 0; c < num_columns; ++c) {
    out << " " << grid[0][c]
        << std::string(widths[c] - grid[0][c].size(), ' ') << " |";
  }
  out << "\n|";
  for (size_t c = 0; c < num_columns; ++c) {
    const std::string underline =
        c == 0 ? std::string(grid[0][0].size(), '~') : "";
    out << " " << underline << std::string(widths[c] - underline.size(), ' ')
        << " |";
  }
  out << "\n";
  rule('=');
  for (size_t r = 1; r < grid.size(); ++r) {
    out << "|";
    for (size_t c = 0; c < num_columns; ++c) {
      out << " " << grid[r][c]
          << std::string(widths[c] - grid[r][c].size(), ' ') << " |";
    }
    out << "\n";
  }
  rule('-');
  if (table.rows.size() < table.total_tuples) {
    out << "(" << table.rows.size() << " of " << table.total_tuples
        << " tuples shown)\n";
  }
  return out.str();
}

std::string RenderPreview(const EntityGraph& graph,
                          const MaterializedPreview& preview,
                          const RenderOptions& options) {
  std::string out;
  for (const MaterializedTable& table : preview.tables) {
    out += RenderTable(graph, table, options);
    out += "\n";
  }
  return out;
}

}  // namespace egp
