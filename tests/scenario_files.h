// The committed scenario files under examples/scenarios/ — the only
// definition of the figure grids — for the suites that check every file.
#pragma once

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stats/json.h"

namespace l4span::test {

// Sorted paths of every examples/scenarios/*.json, or only the
// *_quick.json slices.
inline std::vector<std::string> scenario_files(bool quick_only = false)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(L4SPAN_SOURCE_ROOT) / "examples" / "scenarios";
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (e.path().extension() != ".json") continue;
        if (quick_only && !name.ends_with("_quick.json")) continue;
        out.push_back(e.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

inline std::string scenario_file(const std::string& name)
{
    return std::string(L4SPAN_SOURCE_ROOT) + "/examples/scenarios/" + name;
}

inline std::string read_text(const std::string& path)
{
    std::string text;
    EXPECT_TRUE(stats::read_text_file(path, text)) << path;
    return text;
}

}  // namespace l4span::test
